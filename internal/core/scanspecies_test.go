package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fnjv"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// scanRef answers ScanSpecies the way detection read the collection before
// the method existed: a whole-collection Scan that decodes every record
// with FromRow, filtered by prefix. It is the reference the range scan must
// match exactly.
type scanRef struct{ fnjv.Records }

func (r scanRef) ScanSpecies(prefix string, fn func(id, species string) bool) error {
	return r.Records.Scan(func(rec *fnjv.Record) bool {
		if !strings.HasPrefix(rec.ID, prefix) {
			return true
		}
		return fn(rec.ID, rec.Species)
	})
}

// scanSpeciesTenants picks two tenants that a 4-shard ring places on
// different shards, so one can be isolated from the other's shard loss.
func scanSpeciesTenants(t *testing.T, cl *shard.Cluster) (string, string) {
	t.Helper()
	candidates := []string{"acme", "umbrella", "initech", "globex", "hooli", "stark"}
	for _, b := range candidates[1:] {
		if cl.OwnerIndex(b+shard.Sep) != cl.OwnerIndex(candidates[0]+shard.Sep) {
			return candidates[0], b
		}
	}
	t.Fatal("no two candidate tenants on different shards")
	return "", ""
}

// scanSpeciesCollection is the test collection: a legacy untenanted copy
// of the generated records plus a tenant-qualified copy per tenant, with
// every seventh record's species blanked.
func scanSpeciesCollection(t *testing.T, taxa *taxonomy.Generated, tenants ...string) []*fnjv.Record {
	t.Helper()
	base := generateClean(t, taxa, 240)
	var out []*fnjv.Record
	for _, tenant := range append([]string{""}, tenants...) {
		for i, rec := range base {
			r := *rec
			r.ID = shard.Qualify(tenant, r.ID)
			if i%7 == 3 {
				r.Species = ""
			}
			out = append(out, &r)
		}
	}
	return out
}

// refDistinct is the reference distinct-name list: Scan+FromRow, the
// tenant's records only, species-less records skipped.
func refDistinct(t *testing.T, records fnjv.Records, tenant string) ([]string, int) {
	t.Helper()
	set := map[string]bool{}
	processed := 0
	err := records.Scan(func(r *fnjv.Record) bool {
		if tenant != "" && !strings.HasPrefix(r.ID, tenant+shard.Sep) {
			return true
		}
		processed++
		if r.Species != "" {
			set[r.Species] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, processed
}

// ledgerRows renders every ledger update in UPD- order, every column but
// DetectedAt: that is the run's own start time, which differs between two
// systems.
func ledgerRows(t *testing.T, sys *System) []string {
	t.Helper()
	updates, err := sys.Ledger.Pending()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(updates))
	for i, u := range updates {
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%s|%s|%s", u.ID, u.RecordID, u.OriginalName, u.UpdatedName, u.Status, u.Reference, u.Review)
	}
	return out
}

// TestScanSpeciesDetectionEquivalence is the acceptance gate of the
// two-column detection read: on an unsharded and a 4-shard store, tenant
// and untenanted runs must see the same distinct names, process the same
// records and mint byte-identical ledger rows as the Scan+FromRow
// reference, and a tenant's scan must keep answering while another
// tenant's shard is down.
func TestScanSpeciesDetectionEquivalence(t *testing.T) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species: 60, OutdatedFraction: 0.15, ProvisionalFraction: 0.2, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			open := func() *System {
				sys, err := Open(t.TempDir(), Options{Sync: storage.SyncNever, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { sys.Close() })
				return sys
			}
			fast, ref := open(), open()
			ref.Records = scanRef{ref.Records}
			a, b := "acme", "umbrella"
			if fast.Cluster != nil {
				a, b = scanSpeciesTenants(t, fast.Cluster)
			}
			records := scanSpeciesCollection(t, taxa, a, b)
			for _, sys := range []*System{fast, ref} {
				if err := sys.Records.PutAll(records); err != nil {
					t.Fatal(err)
				}
			}

			for _, tenant := range []string{a, "", b} {
				want, wantProcessed := refDistinct(t, fast.Records, tenant)
				got, err := fast.TenantDistinctNames(tenant)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("tenant %q: %d distinct names, reference %d", tenant, len(got), len(want))
				}
				var outcomes [2]*DetectionOutcome
				for i, sys := range []*System{fast, ref} {
					outcomes[i], err = sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{Tenant: tenant})
					if err != nil {
						t.Fatal(err)
					}
				}
				if outcomes[0].RecordsProcessed != wantProcessed || outcomes[1].RecordsProcessed != wantProcessed {
					t.Fatalf("tenant %q: processed %d, reference run %d, want %d",
						tenant, outcomes[0].RecordsProcessed, outcomes[1].RecordsProcessed, wantProcessed)
				}
				if outcomes[0].DistinctNames != len(want) || outcomes[0].UpdatesCreated != outcomes[1].UpdatesCreated {
					t.Fatalf("tenant %q: %d names / %d updates, reference %d names / %d updates",
						tenant, outcomes[0].DistinctNames, outcomes[0].UpdatesCreated, len(want), outcomes[1].UpdatesCreated)
				}
				if outcomes[0].UpdatesCreated == 0 {
					t.Fatalf("tenant %q: run created no ledger updates; the comparison would be vacuous", tenant)
				}
			}
			got, want := ledgerRows(t, fast), ledgerRows(t, ref)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if i >= len(want) || got[i] != want[i] {
						t.Fatalf("ledger diverges at row %d of %d (reference %d):\n got %s", i, len(got), len(want), got[i])
					}
				}
				t.Fatalf("ledger has %d rows, reference %d", len(got), len(want))
			}

			if fast.Cluster == nil {
				return
			}
			// Shard loss: a tenant's names come from its own shard alone.
			wantA, _ := refDistinct(t, fast.Records, a)
			if err := fast.Cluster.StopShard(fast.Cluster.OwnerIndex(b + shard.Sep)); err != nil {
				t.Fatal(err)
			}
			gotA, err := fast.TenantDistinctNames(a)
			if err != nil {
				t.Fatalf("tenant %q scan failed while another shard is down: %v", a, err)
			}
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("tenant %q: %d names with a shard down, want %d", a, len(gotA), len(wantA))
			}
			if _, err := fast.TenantDistinctNames(""); err == nil {
				t.Fatal("whole-collection scan succeeded with a shard down")
			}
		})
	}
}

// TestTenantRunSkipsSpeciesLessRecords pins the one distinct-names rule:
// a tenant record without a species contributes no "" name to the run's
// input, and the run still counts it as processed.
func TestTenantRunSkipsSpeciesLessRecords(t *testing.T) {
	sys, taxa, col := testSystem(t, 60, 20)
	if err := sys.Records.PutAll([]*fnjv.Record{
		{ID: "acme:R1", Species: col.Records[0].Species},
		{ID: "acme:R2"},
	}); err != nil {
		t.Fatal(err)
	}
	names, err := sys.TenantDistinctNames("acme")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{col.Records[0].Species}; !reflect.DeepEqual(names, want) {
		t.Fatalf("tenant names = %q, want %q", names, want)
	}
	outcome, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.DistinctNames != 1 || outcome.RecordsProcessed != 2 {
		t.Fatalf("run saw %d names over %d records, want 1 over 2", outcome.DistinctNames, outcome.RecordsProcessed)
	}
}
