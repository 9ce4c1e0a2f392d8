package core

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/opm"
	"repro/internal/taxonomy"
)

// canonicalGraph renders an OPM graph as a stable string with the run-varying
// details erased: the run ID (embedded in process IDs and accounts) becomes
// "RUN", wall-clock "duration" annotations are dropped, and edge observation
// times are ignored. Everything else — node set, values, quality annotations,
// per-element lineage, edge roles — must be byte-identical across runs for
// the parallel engine to count as provenance-equivalent to the sequential one.
func canonicalGraph(g *opm.Graph, runID string) string {
	scrub := func(s string) string { return strings.ReplaceAll(s, runID, "RUN") }
	lines := make([]string, 0, g.NodeCount()+g.EdgeCount())
	for _, n := range g.Nodes() {
		ann := make([]string, 0, len(n.Annotations))
		for k, v := range n.Annotations {
			if k == "duration" {
				continue // wall clock, varies per run
			}
			ann = append(ann, scrub(k)+"="+scrub(v))
		}
		sort.Strings(ann)
		lines = append(lines, fmt.Sprintf("N|%d|%s|%s|%s|%s",
			n.Kind, scrub(n.ID), scrub(n.Label), scrub(n.Value), strings.Join(ann, ",")))
	}
	for _, e := range g.Edges() {
		lines = append(lines, fmt.Sprintf("E|%d|%s|%s|%s|%s",
			e.Kind, scrub(e.Effect), scrub(e.Cause), e.Role, scrub(e.Account)))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestRunDetectionParallelEquivalence is the concurrency stress test for the
// whole detection stack: a latency-injected HTTP authority, the real client,
// and the engine at several parallelism levels. Run under -race. Every level
// must produce the same detection summary and a provenance graph identical to
// the sequential engine's modulo run ID and timings.
func TestRunDetectionParallelEquivalence(t *testing.T) {
	sys, taxa, _ := testSystem(t, 600, 120)
	svc := taxonomy.NewService(taxa.Checklist, taxonomy.WithLatency(2*time.Millisecond))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := taxonomy.NewClient(srv.URL)

	type runShape struct {
		summary string
		graph   string
	}
	run := func(parallel int) runShape {
		outcome, err := sys.RunDetection(context.Background(), client, RunOptions{
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
		summary := fmt.Sprintf("distinct=%d outdated=%d unknown=%d unavailable=%d renames=%v accuracy=%.6f",
			outcome.DistinctNames, outcome.Outdated, outcome.Unknown, outcome.Unavailable,
			renames, outcome.Assessment.Dimensions["accuracy"])
		m := outcome.EngineMetrics
		if m.InFlight != 0 {
			t.Fatalf("parallel=%d: %d calls still in flight after the run", parallel, m.InFlight)
		}
		if parallel > 0 && m.PeakInFlight > int64(parallel) {
			t.Fatalf("parallel=%d: peak in-flight %d exceeds the budget", parallel, m.PeakInFlight)
		}
		if m.ElementsDispatched != int64(outcome.DistinctNames) {
			t.Fatalf("parallel=%d: dispatched %d elements for %d names", parallel, m.ElementsDispatched, outcome.DistinctNames)
		}
		g, err := sys.Provenance.Graph(outcome.RunID)
		if err != nil {
			t.Fatalf("parallel=%d: graph: %v", parallel, err)
		}
		return runShape{summary: summary, graph: canonicalGraph(g, outcome.RunID)}
	}

	want := run(0) // sequential reference
	if !strings.Contains(want.summary, "distinct=120") {
		t.Fatalf("reference summary suspect: %s", want.summary)
	}
	for _, parallel := range []int{1, 4, 32} {
		got := run(parallel)
		if got.summary != want.summary {
			t.Errorf("parallel=%d summary diverges:\n got %s\nwant %s", parallel, got.summary, want.summary)
		}
		if got.graph != want.graph {
			t.Errorf("parallel=%d provenance graph diverges from the sequential engine", parallel)
		}
	}
}

// TestRunDetectionParallelCancellation checks fail-fast at the system level:
// cancelling the run context mid-detection aborts promptly instead of
// draining the remaining authority round trips, and the failed run still
// leaves provenance behind.
func TestRunDetectionParallelCancellation(t *testing.T) {
	sys, taxa, _ := testSystem(t, 400, 100)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	// The authority holds every request until the run's deadline, so the run
	// is provably mid-flight when it is cancelled, however few round trips
	// its names need.
	svc := taxonomy.NewService(taxa.Checklist)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-ctx.Done():
		case <-r.Context().Done():
		}
		svc.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := taxonomy.NewClient(srv.URL)

	before := len(sys.Provenance.AllRuns())
	start := time.Now()
	_, err := sys.RunDetection(ctx, client, RunOptions{Parallel: 4, SkipLedger: true})
	if err == nil {
		t.Fatal("cancelled detection succeeded")
	}
	// A prompt abort returns soon after the deadline instead of draining
	// the authority round trips still to come.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if after := len(sys.Provenance.AllRuns()); after != before+1 {
		t.Fatalf("failed run left %d new provenance runs, want 1", after-before)
	}
}

// TestMonitorParallelTick drives the periodic-reassessment loop with the
// parallel engine and a singleflight caching resolver — the configuration the
// Monitor documentation recommends — and checks the tick works end to end.
func TestMonitorParallelTick(t *testing.T) {
	sys, taxa, _ := testSystem(t, 300, 80)
	svc := taxonomy.NewService(taxa.Checklist, taxonomy.WithLatency(time.Millisecond))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	cache := taxonomy.NewCachingResolver(taxonomy.NewClient(srv.URL), time.Hour)

	mon, err := NewMonitor(sys, cache, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := mon.ReassessOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Accuracy != second.Accuracy || first.Distinct != 80 {
		t.Fatalf("ticks diverge: %+v vs %+v", first, second)
	}
	hits, misses := cache.Stats()
	if misses != 80 || hits != 80 {
		t.Fatalf("second tick should be all cache hits: hits=%d misses=%d coalesced=%d",
			hits, misses, cache.Coalesced())
	}
}
