package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// detailOnly is a resolver with the detailed batch path but no plain one.
type detailOnly struct{ taxonomy.Resolver }

func (detailOnly) BatchResolveDetail(_ context.Context, names []string) []taxonomy.BatchResult {
	return make([]taxonomy.BatchResult, len(names))
}

func TestWrapperKeepsBatchCapabilities(t *testing.T) {
	gen, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := taxonomy.NewClient("http://127.0.0.1:1")
	for name, inner := range map[string]taxonomy.Resolver{
		"checklist":   gen.Checklist,
		"client":      client,
		"resilient":   taxonomy.NewResilientResolver(client, taxonomy.ResilienceOptions{}),
		"cache":       taxonomy.NewCachingResolver(gen.Checklist, time.Hour),
		"detail-only": detailOnly{gen.Checklist},
	} {
		wrapped := wrapResolver(inner, &spanLog{})
		_, innerBatch := inner.(taxonomy.BatchResolver)
		_, innerDetail := inner.(taxonomy.DetailedBatchResolver)
		_, batch := wrapped.(taxonomy.BatchResolver)
		_, detail := wrapped.(taxonomy.DetailedBatchResolver)
		if batch != innerBatch || detail != innerDetail {
			t.Errorf("%s: wrapper batch=%v detail=%v, wrapped resolver batch=%v detail=%v",
				name, batch, detail, innerBatch, innerDetail)
		}
	}
}

// gatedAuthority serves the checklist and holds the first request until a
// second one arrives, so a coalescer in front of it deterministically
// queues every other call behind the first round trip.
func gatedAuthority(t *testing.T, cl *taxonomy.Checklist) (*httptest.Server, *atomic.Int64) {
	svc := taxonomy.NewService(cl)
	var requests atomic.Int64
	second := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 1 {
			select {
			case <-second:
			case <-time.After(5 * time.Second):
			}
		} else {
			once.Do(func() { close(second) })
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

// upstreamRequests resolves names concurrently through the coalescer core
// puts in front of every resolver and counts the authority's requests.
func upstreamRequests(t *testing.T, names []string, cl *taxonomy.Checklist, wrap bool) int64 {
	srv, requests := gatedAuthority(t, cl)
	var r taxonomy.Resolver = remoteResolver(srv.URL)
	if wrap {
		log := &spanLog{}
		log.on.Store(true)
		r = wrapResolver(r, log)
	}
	c := taxonomy.Coalesce(r, taxonomy.CoalescerOptions{MaxBatch: len(names) - 1, MaxDelay: time.Minute})
	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			if _, err := c.Resolve(context.Background(), n); err != nil {
				t.Errorf("resolve %q: %v", n, err)
			}
		}(n)
	}
	wg.Wait()
	return requests.Load()
}

func TestWrapperKeepsUpstreamRequestCount(t *testing.T) {
	gen, err := taxonomy.Generate(taxonomy.GeneratorSpec{Species: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	names := gen.HistoricalNames[:32]
	plain := upstreamRequests(t, names, gen.Checklist, false)
	wrapped := upstreamRequests(t, names, gen.Checklist, true)
	if plain != wrapped {
		t.Fatalf("wrapped resolver stack sent %d requests, unwrapped %d", wrapped, plain)
	}
	if plain >= int64(len(names)) {
		t.Fatalf("%d requests for %d names: the coalescer did not batch", plain, len(names))
	}
}

// TestProductionWiring pins every workload's configuration to what
// cmd/fnjvweb runs: no chaos knob, no simulated latency, no tuning override.
func TestProductionWiring(t *testing.T) {
	for _, w := range workloads {
		o := openOptions(w)
		if o.Sync != storage.SyncOnClose || o.CommitDelay != 0 || o.ShardDeadline != 0 {
			t.Errorf("%s: open options %+v", w.name, o)
		}
		want := core.RunOptions{Tenant: "t", Parallel: w.parallel}
		if got := runOptions(w, "t"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run options %+v, want only tenant and parallel set", w.name, got)
		}
		s := newScheduler(&core.System{}, nil)
		if s.TTL != 0 || s.Poll != 0 || s.OnEvent != nil {
			t.Errorf("%s: scheduler TTL=%v Poll=%v OnEvent set=%v", w.name, s.TTL, s.Poll, s.OnEvent != nil)
		}
	}
	if c := remoteClient("http://x"); c.Retries != 6 || !reflect.DeepEqual(c.Backoff, taxonomy.NewClient("http://x").Backoff) {
		t.Errorf("remote client retries=%d backoff=%v", c.Retries, c.Backoff)
	}
}

func TestOracleRejectsMismatches(t *testing.T) {
	tenant := &tenantInput{
		names:    []string{"A a", "B b", "C c"},
		outdated: 1,
		renames:  map[string]string{"B b": "D d"},
		updates:  4,
	}
	good := core.DetectionOutcome{RunID: "r", DistinctNames: 3, Outdated: 1, Renames: map[string]string{"B b": "D d"}, UpdatesCreated: 4}
	if err := checkOutcome(&good, tenant, 4); err != nil {
		t.Fatalf("good outcome rejected: %v", err)
	}
	for name, mutate := range map[string]func(*core.DetectionOutcome){
		"names":    func(o *core.DetectionOutcome) { o.DistinctNames = 2 },
		"outdated": func(o *core.DetectionOutcome) { o.Outdated = 2 },
		"rename":   func(o *core.DetectionOutcome) { o.Renames = map[string]string{"B b": "E e"} },
		"unknown":  func(o *core.DetectionOutcome) { o.Unknown = 1 },
		"degraded": func(o *core.DetectionOutcome) { o.Degraded = 1 },
		"updates":  func(o *core.DetectionOutcome) { o.UpdatesCreated = 3 },
	} {
		bad := good
		mutate(&bad)
		if checkOutcome(&bad, tenant, 4) == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}

	ref := graphRef{runID: "r", nodes: 2, edges: 1}
	graph := []byte(`<opmGraph><artifacts><artifact id="a"></artifact></artifacts>` +
		`<processes><process id="p"></process></processes>` +
		`<causalDependencies><dependency type="used"></dependency></causalDependencies></opmGraph>`)
	if err := checkRead("graph", graph, ref); err != nil {
		t.Errorf("good graph rejected: %v", err)
	}
	if checkRead("graph", graph, graphRef{runID: "r", nodes: 3, edges: 1}) == nil {
		t.Error("graph size mismatch accepted")
	}
	page := func(ids ...string) []byte {
		var runs []map[string]string
		for _, id := range ids {
			runs = append(runs, map[string]string{"run_id": id})
		}
		blob, _ := json.Marshal(map[string]any{"runs": runs})
		return blob
	}
	var asc, desc []string
	for i := 0; i < 16; i++ {
		asc = append(asc, fmt.Sprintf("run-%02d", i))
		desc = append(desc, fmt.Sprintf("run-%02d", 15-i))
	}
	if err := checkRead("runs", page(asc...), graphRef{}); err != nil {
		t.Errorf("ascending page rejected: %v", err)
	}
	if checkRead("runs", page(desc...), graphRef{}) == nil {
		t.Error("descending page accepted")
	}
}

func TestPartitionSumsToLatency(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parts := partition(at(0), at(100), layerBench, []ranked{
		{layerCluster, rankPhase, at(10), at(100)},
		{layerCore, rankCore, at(40), at(120)},
		{layerWorkflow, rankWorkflow, at(50), at(70)},
		{layerTaxonomy, rankTaxonomy, at(55), at(60)},
	})
	want := map[string]time.Duration{
		layerBench:    10 * time.Millisecond,
		layerCluster:  30 * time.Millisecond,
		layerCore:     40 * time.Millisecond,
		layerWorkflow: 15 * time.Millisecond,
		layerTaxonomy: 5 * time.Millisecond,
	}
	if !reflect.DeepEqual(parts, want) {
		t.Fatalf("partition = %v, want %v", parts, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the command in step:
// the metrics it declares are exactly the ones the command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, command %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}
