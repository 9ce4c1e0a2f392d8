package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/taxonomy"
)

// The paper's FNJV shape: 134 of 1929 species names are outdated, 5% of
// those provisional. Each tenant holds 3,000 records over a 500-species
// checklist.
const (
	speciesPerChecklist = 500
	recordsPerTenant    = 3000
)

// inputs is everything the benchmark generates from its seed: the checklist
// the authority serves, and per tenant the records the system loads plus the
// ground truth a detection run over them must reproduce.
type inputs struct {
	taxa    *taxonomy.Generated
	tenants []*tenantInput
}

type tenantInput struct {
	name    string
	records []*fnjv.Record
	// names are the tenant's distinct species names, sorted.
	names []string
	// outdated is |OutdatedNames ∩ names|.
	outdated int
	// renames maps each outdated name to the checklist's accepted name, or
	// to "Nomen inquirendum" for a provisional name.
	renames map[string]string
	// updates is how many of the tenant's records carry an outdated name:
	// the per-record updates a run must persist.
	updates int
}

// generateInputs builds the checklist and the tenants' collections for one
// seed. Tenant names are chosen so that they spread over an nshards ring.
func generateInputs(seed int64, tenants, nshards int) (*inputs, error) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             speciesPerChecklist,
		OutdatedFraction:    134.0 / 1929.0,
		ProvisionalFraction: 0.05,
		Seed:                seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{taxa: taxa}
	for i, name := range tenantNames(tenants, nshards) {
		col, err := fnjv.Generate(fnjv.CollectionSpec{
			Records:         recordsPerTenant,
			Seed:            seed*131 + int64(i) + 2,
			SyntaxErrorRate: 1e-12,
		}, taxa, geo.SyntheticGazetteer(40, seed+1), envsource.NewSimulator())
		if err != nil {
			return nil, err
		}
		t, err := tenantTruth(name, col.Records, taxa)
		if err != nil {
			return nil, err
		}
		in.tenants = append(in.tenants, t)
	}
	return in, nil
}

// tenantTruth qualifies the records with the tenant and derives the ground
// truth from the generator's output and the checklist.
func tenantTruth(tenant string, recs []*fnjv.Record, taxa *taxonomy.Generated) (*tenantInput, error) {
	t := &tenantInput{name: tenant, renames: map[string]string{}}
	species := map[string]bool{}
	for _, rec := range recs {
		r := *rec
		r.ID = tenant + shard.Sep + r.ID
		t.records = append(t.records, &r)
		species[r.Species] = true
		if taxa.OutdatedNames[r.Species] {
			t.updates++
		}
	}
	for name := range species {
		t.names = append(t.names, name)
		if !taxa.OutdatedNames[name] {
			continue
		}
		t.outdated++
		res, err := taxa.Checklist.Resolve(context.Background(), name)
		if err != nil {
			return nil, fmt.Errorf("checklist does not know outdated name %q: %w", name, err)
		}
		switch res.Status {
		case taxonomy.StatusSynonym:
			t.renames[name] = res.AcceptedName
		case taxonomy.StatusProvisional:
			t.renames[name] = "Nomen inquirendum"
		default:
			return nil, fmt.Errorf("outdated name %q resolves as %s", name, res.Status)
		}
	}
	sort.Strings(t.names)
	return t, nil
}

// tenantNames picks tenant names that cover every shard of an nshards ring
// round-robin, so a sharded system holds each tenant on its own shard. The
// probe uses the ring the cluster builds, so the choice is deterministic.
func tenantNames(tenants, nshards int) []string {
	if nshards < 2 {
		names := make([]string, tenants)
		for i := range names {
			names[i] = fmt.Sprintf("tenant-%02d", i)
		}
		return names
	}
	ring := shard.NewRing(nshards, 0)
	byShard := make([][]string, nshards)
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		owner := ring.Owner(shard.RouteKey(name + shard.Sep + "x"))
		byShard[owner] = append(byShard[owner], name)
	}
	var names []string
	for round := 0; len(names) < tenants; round++ {
		for s := 0; s < nshards && len(names) < tenants; s++ {
			if round < len(byShard[s]) {
				names = append(names, byShard[s][round])
			}
		}
	}
	return names
}

// checkOutcome is the detect oracle: the run's numbers must match the
// tenant's ground truth, and its update count the setup reference run's.
// refUpdates < 0 skips the reference comparison (the reference run itself).
func checkOutcome(out *core.DetectionOutcome, t *tenantInput, refUpdates int) error {
	if out == nil {
		return fmt.Errorf("no outcome")
	}
	switch {
	case out.DistinctNames != len(t.names):
		return fmt.Errorf("run %s: %d distinct names, want %d", out.RunID, out.DistinctNames, len(t.names))
	case out.Outdated != t.outdated:
		return fmt.Errorf("run %s: %d outdated, want %d", out.RunID, out.Outdated, t.outdated)
	case out.Unknown != 0 || out.Unavailable != 0 || out.Degraded != 0:
		return fmt.Errorf("run %s: unknown=%d unavailable=%d degraded=%d, want 0",
			out.RunID, out.Unknown, out.Unavailable, out.Degraded)
	case len(out.Renames) != len(t.renames):
		return fmt.Errorf("run %s: %d renames, want %d", out.RunID, len(out.Renames), len(t.renames))
	case out.UpdatesCreated != t.updates:
		return fmt.Errorf("run %s: %d updates, want %d", out.RunID, out.UpdatesCreated, t.updates)
	case refUpdates >= 0 && out.UpdatesCreated != refUpdates:
		return fmt.Errorf("run %s: %d updates, reference run made %d", out.RunID, out.UpdatesCreated, refUpdates)
	}
	for name, got := range out.Renames {
		if want, ok := t.renames[name]; !ok || got != want {
			return fmt.Errorf("run %s: %q renamed to %q, checklist says %q", out.RunID, name, got, want)
		}
	}
	return nil
}
