package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/taxonomy"
)

// singleOnlyResolver strips every batch capability from a resolver, leaving
// the bare one-name-per-round-trip protocol — the reference the batched
// stack must be provenance-equivalent to.
type singleOnlyResolver struct {
	inner taxonomy.Resolver
}

func (s singleOnlyResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	return s.inner.Resolve(ctx, name)
}

// batchEquivShape is everything a detection run produces that batching must
// not change: the summary numbers, the renames, and the canonical
// provenance graph.
type batchEquivShape struct {
	summary string
	graph   string
}

func runShapeWith(t *testing.T, sys *System, resolver taxonomy.Resolver, parallel int) (batchEquivShape, *DetectionOutcome) {
	t.Helper()
	outcome, err := sys.RunDetection(context.Background(), resolver, RunOptions{
		Parallel: parallel, SkipLedger: true,
	})
	if err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	renames := make([]string, 0, len(outcome.Renames))
	for old, upd := range outcome.Renames {
		renames = append(renames, old+"->"+upd)
	}
	sort.Strings(renames)
	summary := fmt.Sprintf("distinct=%d outdated=%d unknown=%d unavailable=%d degraded=%d renames=%v accuracy=%.6f",
		outcome.DistinctNames, outcome.Outdated, outcome.Unknown, outcome.Unavailable, outcome.Degraded,
		renames, outcome.Assessment.Dimensions["accuracy"])
	g, err := sys.Provenance.Graph(outcome.RunID)
	if err != nil {
		t.Fatalf("parallel=%d: graph: %v", parallel, err)
	}
	return batchEquivShape{summary: summary, graph: canonicalGraph(g, outcome.RunID)}, outcome
}

// TestRunDetectionBatchEquivalence: the same detection over the same
// authority must yield byte-identical canonical provenance and identical
// fresh/degraded accounting whether names travel one-per-round-trip or
// batched+coalesced — at engine parallelism 1 and 4. The batched run must
// also fill its batches from the run's own name list: one upstream request
// per 64 names (one more if the engine's first elements race), not one per
// pair of concurrently resolving workers.
func TestRunDetectionBatchEquivalence(t *testing.T) {
	sys, taxa, _ := testSystem(t, 600, 120)
	svc := taxonomy.NewService(taxa.Checklist, taxonomy.WithLatency(time.Millisecond))
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Reference: the single-name protocol through the full resilient stack.
	refStack := func() taxonomy.Resolver {
		return taxonomy.NewResilientResolver(singleOnlyResolver{taxonomy.NewClient(srv.URL)}, taxonomy.ResilienceOptions{})
	}
	// Candidate: the batch fast path end to end (client batch endpoint,
	// cache miss coalescing, one guard admission per batch).
	batchStack := func() taxonomy.Resolver {
		return taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), taxonomy.ResilienceOptions{})
	}

	for _, parallel := range []int{1, 4} {
		want, wantOutcome := runShapeWith(t, sys, refStack(), parallel)
		before, _ := svc.Stats()
		got, gotOutcome := runShapeWith(t, sys, batchStack(), parallel)
		after, _ := svc.Stats()
		if limit := int64((gotOutcome.DistinctNames+63)/64 + 1); after-before > limit {
			t.Errorf("parallel=%d: %d upstream requests for %d names, want at most %d",
				parallel, after-before, gotOutcome.DistinctNames, limit)
		}
		if got.summary != want.summary {
			t.Errorf("parallel=%d summary diverges:\n batch  %s\n single %s", parallel, got.summary, want.summary)
		}
		if got.graph != want.graph {
			t.Errorf("parallel=%d: batched provenance graph diverges from single-name graph", parallel)
		}
		if wantOutcome.Degraded != 0 || gotOutcome.Degraded != 0 {
			t.Errorf("parallel=%d: healthy authority produced degraded answers (single %d, batch %d)",
				parallel, wantOutcome.Degraded, gotOutcome.Degraded)
		}
	}
}

// TestRunDetectionBatchEquivalenceDuringOutage drops the authority dead
// between a cache-warming run and the run under test: both protocols must
// degrade identically — every name served stale, marked Degraded, with the
// same renames and the same canonical graph as each other.
func TestRunDetectionBatchEquivalenceDuringOutage(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 80)
	svc := taxonomy.NewService(taxa.Checklist)
	srv := httptest.NewServer(svc)
	defer srv.Close()

	shortTTL := taxonomy.ResilienceOptions{TTL: 10 * time.Millisecond}
	single := taxonomy.NewResilientResolver(singleOnlyResolver{taxonomy.NewClient(srv.URL)}, shortTTL)
	batched := taxonomy.NewResilientResolver(taxonomy.NewClient(srv.URL), shortTTL)

	// Warm both stacks' last-known-good caches while the authority is up.
	if _, _, err := warmDetect(sys, single); err != nil {
		t.Fatal(err)
	}
	if _, _, err := warmDetect(sys, batched); err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond) // expire the TTLs
	svc.SetAvailability(0)            // outage hits mid-campaign, before the next pass

	want, wantOutcome := runShapeWith(t, sys, single, 4)
	got, gotOutcome := runShapeWith(t, sys, batched, 4)

	if wantOutcome.Degraded != wantOutcome.DistinctNames {
		t.Fatalf("single stack degraded %d of %d names", wantOutcome.Degraded, wantOutcome.DistinctNames)
	}
	if gotOutcome.Degraded != gotOutcome.DistinctNames {
		t.Fatalf("batch stack degraded %d of %d names", gotOutcome.Degraded, gotOutcome.DistinctNames)
	}
	if got.summary != want.summary {
		t.Errorf("outage summaries diverge:\n batch  %s\n single %s", got.summary, want.summary)
	}
	if got.graph != want.graph {
		t.Error("outage provenance graphs diverge between batch and single protocols")
	}
}

func warmDetect(sys *System, resolver taxonomy.Resolver) (*DetectionOutcome, string, error) {
	outcome, err := sys.RunDetection(context.Background(), resolver, RunOptions{Parallel: 4, SkipLedger: true})
	if err != nil {
		return nil, "", err
	}
	return outcome, outcome.RunID, nil
}
