package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/taxonomy"
)

// outageResolver is a batch-capable authority that is always down.
type outageResolver struct{}

func (outageResolver) Resolve(_ context.Context, name string) (taxonomy.Resolution, error) {
	return taxonomy.Resolution{Query: name, Status: taxonomy.StatusUnknown}, fmt.Errorf("%w: test outage", taxonomy.ErrUnavailable)
}

func (outageResolver) BatchResolve(context.Context, []string) ([]taxonomy.Resolution, error) {
	return nil, fmt.Errorf("%w: test outage", taxonomy.ErrUnavailable)
}

// TestRunDetectionLeavesSystemRegistryUnmodified: a run binds its services
// into a registry of its own, never into the shared System.Registry.
func TestRunDetectionLeavesSystemRegistryUnmodified(t *testing.T) {
	sys, taxa, _ := testSystem(t, 200, 40)
	before := sys.Registry.Names()
	sort.Strings(before)
	if _, err := sys.RunDetection(context.Background(), taxa.Checklist, RunOptions{Parallel: 4, SkipLedger: true}); err != nil {
		t.Fatal(err)
	}
	after := sys.Registry.Names()
	sort.Strings(after)
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("System.Registry services %v after a run, %v before", after, before)
	}
}

// TestConcurrentRunsKeepTheirOwnResolver runs detections against a healthy
// and a dead authority side by side: each run must record only its own
// resolver's answers.
func TestConcurrentRunsKeepTheirOwnResolver(t *testing.T) {
	sys, taxa, _ := testSystem(t, 100, 20)
	resolvers := map[string]taxonomy.Resolver{"healthy": taxa.Checklist, "outage": outageResolver{}}
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		outcomes := map[string]*DetectionOutcome{}
		for label, r := range resolvers {
			wg.Add(1)
			go func(label string, r taxonomy.Resolver) {
				defer wg.Done()
				outcome, err := sys.RunDetection(context.Background(), r, RunOptions{Parallel: 4, SkipLedger: true})
				if err != nil {
					t.Errorf("round %d %s: %v", round, label, err)
					return
				}
				mu.Lock()
				outcomes[label] = outcome
				mu.Unlock()
			}(label, r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if o := outcomes["healthy"]; o.Unavailable != 0 {
			t.Fatalf("round %d: healthy run recorded %d unavailable answers", round, o.Unavailable)
		}
		if o := outcomes["outage"]; o.Unavailable != o.DistinctNames {
			t.Fatalf("round %d: outage run recorded %d of %d names unavailable", round, o.Unavailable, o.DistinctNames)
		}
	}
}
