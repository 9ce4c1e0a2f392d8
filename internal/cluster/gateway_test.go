package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workflow"
)

// fanDef is a single fan-out stage: "work" over every element of "in".
func fanDef() *workflow.Definition {
	return &workflow.Definition{
		ID: "wf-fan", Name: "fan",
		Inputs:  []workflow.Port{{Name: "in", Depth: 1}},
		Outputs: []workflow.Port{{Name: "out", Depth: 1}},
		Processors: []*workflow.Processor{
			{Name: "A", Service: "work",
				Inputs:  []workflow.Port{{Name: "x"}},
				Outputs: []workflow.Port{{Name: "y"}}},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "in"}, Target: workflow.Endpoint{Processor: "A", Port: "x"}},
			{Source: workflow.Endpoint{Processor: "A", Port: "y"}, Target: workflow.Endpoint{Port: "out"}},
		},
	}
}

// workReg registers the "work" service: uppercase with a fixed latency.
// Orchestrator and worker get semantically identical registries — only the
// latency differs, which must never show in the run's outputs.
func workReg(delay time.Duration) *workflow.Registry {
	reg := workflow.NewRegistry()
	reg.Register("work", func(_ context.Context, c workflow.Call) (map[string]workflow.Data, error) {
		time.Sleep(delay)
		return map[string]workflow.Data{"y": workflow.Scalar(strings.ToUpper(c.Input("x").String()))}, nil
	})
	return reg
}

// TestRemoteWorkerExecutesRun attaches an out-of-process worker (real HTTP,
// httptest server) to an engine run through the gateway and checks the
// cross-process contract: the run's outputs are exactly what an all-local
// run produces, the remote worker actually executed a share of the tasks,
// and the registry tracked it under the remote namespace.
func TestRemoteWorkerExecutesRun(t *testing.T) {
	stats := workflow.NewWorkerRegistry()
	gw := cluster.NewServer(stats)
	srv := httptest.NewServer(gw)
	defer srv.Close()

	// The single local worker is slow; the remote one is fast and should
	// win most of the 16 elements over real HTTP round-trips.
	eng := workflow.NewEventEngine(workReg(40 * time.Millisecond))
	eng.Workers = 1
	eng.Stats = stats
	eng.Gateway = gw

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cluster.Worker{Gateway: srv.URL, Name: "alpha", Registry: workReg(time.Millisecond), Poll: 2 * time.Second}
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()

	const n = 16
	items := make([]workflow.Data, n)
	want := make([]string, n)
	for i := range items {
		items[i] = workflow.Scalar(fmt.Sprintf("item%02d", i))
		want[i] = fmt.Sprintf("ITEM%02d", i)
	}
	res, err := eng.Run(ctx, fanDef(), map[string]workflow.Data{"in": workflow.List(items...)})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, n)
	for _, d := range res.Outputs["out"].Items() {
		got = append(got, d.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outputs = %v, want %v", got, want)
	}
	if w.Tasks.Load() == 0 {
		t.Error("remote worker executed no tasks")
	}
	var remote *workflow.WorkerInfo
	for _, info := range stats.Snapshot() {
		if info.Remote {
			i := info
			remote = &i
		}
	}
	if remote == nil {
		t.Fatal("no remote worker in the registry snapshot")
	}
	if remote.ID != "r-alpha" {
		t.Errorf("remote worker ID = %q, want r-alpha", remote.ID)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop on cancel")
	}
}

// TestGatewayReportAfterRunFinished pins the late-report contract: a report
// for a run the gateway no longer tracks is a 200 no-op, not an error — the
// run finished while the worker was computing and the redelivered task's
// result already folded in elsewhere.
func TestGatewayReportAfterRunFinished(t *testing.T) {
	gw := cluster.NewServer(workflow.NewWorkerRegistry())
	srv := httptest.NewServer(gw)
	defer srv.Close()

	if got := gw.Runs(); len(got) != 0 {
		t.Fatalf("fresh gateway lists runs: %v", got)
	}
	resp, err := http.Post(srv.URL+"/cluster/v1/complete", "application/json",
		strings.NewReader(`{"worker":"late","run_id":"gone","task":{"ID":"gone/A#-1"},"outputs":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late report status = %s, want 200 no-op", resp.Status)
	}
}

// TestGatewayBodyCap pins the bounded process edge: a request body past the
// gateway's cap is refused with 413, and a normal one is still served.
func TestGatewayBodyCap(t *testing.T) {
	srv := httptest.NewServer(cluster.NewServer(workflow.NewWorkerRegistry()))
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/cluster/v1/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"worker":"` + strings.Repeat("a", 9<<20) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", code)
	}
	if code := post(`{"worker":"alpha"}`); code != http.StatusOK {
		t.Fatalf("normal body answered %d, want 200", code)
	}
}
