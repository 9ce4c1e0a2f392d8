package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/fnjv"
	"repro/internal/provenance"
	"repro/internal/telemetry"
)

// getResp performs a GET returning the full response (for header checks).
func getResp(t *testing.T, url string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeJSON asserts status and Content-Type, then decodes the body into v.
func decodeJSON(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

// wantEnvelope asserts the uniform error envelope shape and code.
func wantEnvelope(t *testing.T, resp *http.Response, status int, code string) {
	t.Helper()
	var body errorBody
	decodeJSON(t, resp, status, &body)
	if body.Error.Code != code {
		t.Fatalf("error code %q, want %q", body.Error.Code, code)
	}
	if body.Error.Message == "" {
		t.Fatal("error envelope without a message")
	}
}

func TestAPIRunsPagination(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a", "run-b", "run-c")

	var page struct {
		Runs []struct {
			RunID  string            `json:"run_id"`
			Status string            `json:"status"`
			Links  map[string]string `json:"links"`
		} `json:"runs"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs?limit=2", nil), 200, &page)
	if len(page.Runs) != 2 || page.Runs[0].RunID != "run-a" || page.Runs[1].RunID != "run-b" {
		t.Fatalf("page 1: %+v", page.Runs)
	}
	if page.NextCursor != "run-b" {
		t.Fatalf("next_cursor %q, want run-b", page.NextCursor)
	}
	if page.Runs[0].Links["trace"] != "/api/v1/runs/run-a/trace" {
		t.Fatalf("trace link: %q", page.Runs[0].Links["trace"])
	}
	page.Runs, page.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs?limit=2&after=run-b", nil), 200, &page)
	if len(page.Runs) != 1 || page.Runs[0].RunID != "run-c" || page.NextCursor != "" {
		t.Fatalf("page 2: %+v next=%q", page.Runs, page.NextCursor)
	}

	// Hardened limit parsing: zero, negative, junk, and oversized limits are
	// 400s with the envelope — never silently clamped.
	for _, bad := range []string{"0", "-1", "zzz", "501", "99999999999999999999"} {
		wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs?limit="+bad, nil), http.StatusBadRequest, "bad_request")
	}
}

func TestAPIRunDetailAndErrors(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	var run struct {
		RunID      string `json:"run_id"`
		Status     string `json:"status"`
		WorkflowID string `json:"workflow_id"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a", nil), 200, &run)
	if run.RunID != "run-a" || run.Status != "completed" || run.WorkflowID != "wf" {
		t.Fatalf("run detail: %+v", run)
	}

	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-nope", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-a/bogus", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/zzz", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-a/edges?after=zzz", nil), http.StatusBadRequest, "bad_request")

	// Method gating: writes to read-only resources are 405s.
	resp, err := http.Post(srv.URL+"/api/v1/runs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	wantEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("Allow header %q", allow)
	}
}

// snapshotCounter counts the COW snapshots the web layer takes of the
// provenance repository it wraps.
type snapshotCounter struct {
	provenance.Repo
	n atomic.Int64
}

func (c *snapshotCounter) Snapshot() provenance.Repo {
	c.n.Add(1)
	return c.Repo.Snapshot()
}

// TestRunPollTakesNoSnapshot pins the poll path: GET /api/v1/runs/{id}
// reads the one run row from the live repository. A snapshot would take the
// exclusive DB lock and make the next provenance flush copy B-tree nodes.
func TestRunPollTakesNoSnapshot(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")
	counter := &snapshotCounter{Repo: wsys.Core.Provenance}
	wsys.Core.Provenance = counter

	var run struct {
		RunID  string `json:"run_id"`
		Status string `json:"status"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a", nil), 200, &run)
	if run.RunID != "run-a" || run.Status != "completed" {
		t.Fatalf("run detail: %+v", run)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-nope", nil), http.StatusNotFound, "not_found")
	if n := counter.n.Load(); n != 0 {
		t.Fatalf("run polls took %d snapshots, want 0", n)
	}
	// The counter is on the read path: a graph read still takes its one
	// snapshot, so info and graph agree.
	resp := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", nil)
	resp.Body.Close()
	if n := counter.n.Load(); n != 1 {
		t.Fatalf("graph read took %d snapshots, want 1", n)
	}
}

func TestAPIRunGraphETag(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	resp := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/xml" {
		t.Fatalf("graph: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("finished run's graph has no ETag: %q", etag)
	}
	// Conditional revalidation: the graph of a completed run is immutable.
	resp2 := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", map[string]string{"If-None-Match": etag})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation: %d, want 304", resp2.StatusCode)
	}
	// A non-matching validator still gets the body.
	resp3 := getResp(t, srv.URL+"/api/v1/runs/run-a/graph", map[string]string{"If-None-Match": `"stale"`})
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("stale validator: %d", resp3.StatusCode)
	}
}

func TestAPIEdgesAndNodesPagination(t *testing.T) {
	srv, wsys, _ := testServer(t)
	seedProvRuns(t, wsys.Core, "run-a")

	var edges struct {
		Edges []struct {
			Kind   string `json:"kind"`
			Effect string `json:"effect"`
		} `json:"edges"`
		NextCursor *int `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/edges?limit=1", nil), 200, &edges)
	if len(edges.Edges) != 1 || edges.NextCursor == nil {
		t.Fatalf("edges page 1: %+v", edges)
	}
	after := *edges.NextCursor
	edges.Edges, edges.NextCursor = nil, nil
	decodeJSON(t, getResp(t, fmt.Sprintf("%s/api/v1/runs/run-a/edges?limit=1&after=%d", srv.URL, after), nil), 200, &edges)
	if len(edges.Edges) != 1 || edges.NextCursor != nil {
		t.Fatalf("edges page 2 should be last: %+v", edges)
	}

	var nodes struct {
		Nodes []struct {
			ID   string `json:"id"`
			Kind string `json:"kind"`
		} `json:"nodes"`
		NextCursor string `json:"next_cursor"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/nodes?limit=2", nil), 200, &nodes)
	if len(nodes.Nodes) != 2 || nodes.NextCursor == "" {
		t.Fatalf("nodes page 1: %+v", nodes)
	}
	cursor := nodes.NextCursor
	nodes.Nodes, nodes.NextCursor = nil, ""
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/runs/run-a/nodes?limit=2&after="+cursor, nil), 200, &nodes)
	if len(nodes.Nodes) != 1 || nodes.NextCursor != "" {
		t.Fatalf("nodes page 2: %+v", nodes)
	}
}

// TestAPIDetectAndTrace is the API-boundary trace-propagation contract: a
// run triggered through POST /api/v1/detect is queryable as one complete
// span tree via /api/v1/runs/{id}/trace, and its flat span pages walk the
// same spans.
func TestAPIDetectAndTrace(t *testing.T) {
	srv, wsys, _ := testServer(t)

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var det struct {
		RunID         string            `json:"run_id"`
		DistinctNames int               `json:"distinct_names"`
		Links         map[string]string `json:"links"`
	}
	decodeJSON(t, resp, 200, &det)
	if det.RunID == "" || det.DistinctNames != 100 {
		t.Fatalf("detect: %+v", det)
	}

	var trace struct {
		RunID     string `json:"run_id"`
		Status    string `json:"status"`
		SpanCount int    `json:"span_count"`
		Complete  bool   `json:"complete"`
		Roots     []struct {
			Span struct {
				Name string `json:"name"`
				Kind string `json:"kind"`
			} `json:"span"`
			Children []json.RawMessage `json:"children"`
		} `json:"roots"`
	}
	tresp := getResp(t, srv.URL+det.Links["trace"], nil)
	etag := tresp.Header.Get("ETag")
	decodeJSON(t, tresp, 200, &trace)
	if !trace.Complete {
		t.Fatal("API-triggered run's trace is not a connected tree")
	}
	if len(trace.Roots) != 1 || trace.Roots[0].Span.Name != "run-detection" || trace.Roots[0].Span.Kind != "core" {
		t.Fatalf("trace root: %+v", trace.Roots)
	}
	// A real detection run records at least root + workflow + per-processor
	// + element spans.
	if trace.SpanCount < 4 {
		t.Fatalf("span_count %d too small", trace.SpanCount)
	}
	if len(trace.Roots[0].Children) == 0 {
		t.Fatal("root span has no children")
	}
	// A completed run's trace is immutable — ETag + 304.
	if etag == "" {
		t.Fatal("completed run's trace has no ETag")
	}
	r304 := getResp(t, srv.URL+det.Links["trace"], map[string]string{"If-None-Match": etag})
	r304.Body.Close()
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("trace revalidation: %d, want 304", r304.StatusCode)
	}

	// Walk the flat span pages; the union must cover span_count exactly.
	total, after := 0, -1
	for {
		var page struct {
			Spans      []telemetry.Span `json:"spans"`
			NextCursor *int             `json:"next_cursor"`
		}
		url := fmt.Sprintf("%s/api/v1/runs/%s/spans?limit=3", srv.URL, det.RunID)
		if after >= 0 {
			url += fmt.Sprintf("&after=%d", after)
		}
		decodeJSON(t, getResp(t, url, nil), 200, &page)
		total += len(page.Spans)
		for _, sp := range page.Spans {
			if sp.TraceID != det.RunID {
				t.Fatalf("span %s carries trace %q, want %q", sp.SpanID, sp.TraceID, det.RunID)
			}
		}
		if page.NextCursor == nil {
			break
		}
		after = *page.NextCursor
	}
	if total != trace.SpanCount {
		t.Fatalf("span pages yielded %d spans, trace reports %d", total, trace.SpanCount)
	}

	// GET on the action endpoint is rejected.
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/detect", nil), http.StatusMethodNotAllowed, "method_not_allowed")
	// A seeded run with no trace 404s.
	seedProvRuns(t, wsys.Core, "run-untraced")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/runs/run-untraced/trace", nil), http.StatusNotFound, "not_found")
}

func TestAPIRecords(t *testing.T) {
	srv, wsys, _ := testServer(t)
	var species, id string
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool {
		species, id = r.Species, r.ID
		return false
	})

	var list struct {
		Records []recordJSON `json:"records"`
		Count   int          `json:"count"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records?species="+strings.ReplaceAll(species, " ", "+"), nil), 200, &list)
	if list.Count == 0 || list.Count != len(list.Records) {
		t.Fatalf("records list: %+v", list)
	}
	found := false
	for _, rec := range list.Records {
		if rec.ID == id {
			found = true
		}
		if rec.Species != species {
			t.Fatalf("filter leaked species %q", rec.Species)
		}
	}
	if !found {
		t.Fatalf("record %s missing from filtered list", id)
	}

	// Unfiltered listing respects the limit.
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records?limit=5", nil), 200, &list)
	if list.Count != 5 {
		t.Fatalf("limited list: %d", list.Count)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/records?limit=-3", nil), http.StatusBadRequest, "bad_request")

	var detail struct {
		recordJSON
		History []json.RawMessage `json:"history"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/records/"+id, nil), 200, &detail)
	if detail.ID != id || detail.Curated == "" {
		t.Fatalf("record detail: %+v", detail.recordJSON)
	}
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/records/FNJV-99999", nil), http.StatusNotFound, "not_found")
}

func TestAPIQualityAndMetrics(t *testing.T) {
	srv, _, _ := testServer(t)

	// No assessment before the first run.
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/quality", nil), http.StatusNotFound, "not_found")

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, 200, nil)

	var q struct {
		Goal       string             `json:"goal"`
		Utility    float64            `json:"utility"`
		Dimensions map[string]float64 `json:"dimensions"`
		RunID      string             `json:"run_id"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/quality", nil), 200, &q)
	if q.Utility <= 0 || len(q.Dimensions) == 0 || q.RunID == "" {
		t.Fatalf("quality: %+v", q)
	}

	// /api/v1/metrics reports the engine's latency quantiles per subsystem.
	var ms []MetricsEntry
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
	byEntity := map[string]map[string]float64{}
	for _, m := range ms {
		byEntity[m.Entity] = m.Measurements
	}
	eng, ok := byEntity["subsystem:engine"]
	if !ok {
		t.Fatalf("no engine entry in %v", byEntity)
	}
	for _, k := range []string{"engine.exec.p50_us", "engine.exec.p95_us", "engine.exec.p99_us",
		"engine.queue_wait.p50_us", "engine.queue_wait.p95_us", "engine.queue_wait.p99_us"} {
		if _, ok := eng[k]; !ok {
			t.Errorf("engine metrics missing %s", k)
		}
	}
	if eng["engine.exec.p95_us"] < eng["engine.exec.p50_us"] {
		t.Error("p95 below p50")
	}
	if pw, ok := byEntity["subsystem:provenance-writer"]; !ok {
		t.Error("no provenance-writer entry")
	} else if _, ok := pw["provenance.writer.flush.p99_us"]; !ok {
		t.Error("provenance-writer metrics missing flush p99")
	}
}

// TestAPIWorkers covers the worker-pool view: before any run the pool is
// empty but well-formed; after a detection run the registry reports the
// run's workers (exited, not killed) and the queue gauges read drained.
func TestAPIWorkers(t *testing.T) {
	srv, wsys, _ := testServer(t)

	var pool struct {
		Counters map[string]float64 `json:"counters"`
		Workers  []struct {
			ID     string `json:"id"`
			RunID  string `json:"run_id"`
			Tasks  int    `json:"tasks"`
			Alive  bool   `json:"alive"`
			Killed bool   `json:"killed"`
		} `json:"workers"`
		Leases []struct {
			Resource string `json:"resource"`
			Holder   string `json:"holder"`
			Token    int64  `json:"token"`
			Live     bool   `json:"live"`
		} `json:"leases"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/workers", nil), 200, &pool)
	if len(pool.Workers) != 0 || pool.Counters["workers.started"] != 0 {
		t.Fatalf("pool before any run: %+v", pool)
	}
	if len(pool.Leases) != 0 {
		t.Fatalf("leases before any orchestrated run: %+v", pool.Leases)
	}

	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, 200, nil)

	decodeJSON(t, getResp(t, srv.URL+"/api/v1/workers", nil), 200, &pool)
	if pool.Counters["workers.started"] < 1 || pool.Counters["workers.exited"] < 1 {
		t.Fatalf("pool counters after run: %v", pool.Counters)
	}
	if pool.Counters["queue.depth"] != 0 || pool.Counters["queue.in_flight"] != 0 {
		t.Fatalf("queue not drained: %v", pool.Counters)
	}
	if len(pool.Workers) == 0 {
		t.Fatal("no workers recorded")
	}
	tasks := 0
	for _, wk := range pool.Workers {
		if wk.ID == "" || wk.RunID == "" {
			t.Fatalf("malformed worker: %+v", wk)
		}
		if wk.Alive || wk.Killed {
			t.Fatalf("worker not cleanly exited: %+v", wk)
		}
		tasks += wk.Tasks
	}
	if tasks == 0 {
		t.Fatal("workers report zero tasks for a completed run")
	}

	// A held run lease surfaces in the payload with its fencing token.
	if _, err := wsys.Core.Leases.Acquire("run-x", "orch-api", time.Minute); err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/workers", nil), 200, &pool)
	if len(pool.Leases) != 1 {
		t.Fatalf("leases = %+v, want the acquired one", pool.Leases)
	}
	if l := pool.Leases[0]; l.Resource != "run-x" || l.Holder != "orch-api" || l.Token != 1 || !l.Live {
		t.Fatalf("lease payload = %+v", l)
	}

	// The same gauges flow through /api/v1/metrics as a subsystem.
	var ms []MetricsEntry
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/metrics", nil), 200, &ms)
	found := false
	for _, m := range ms {
		if m.Entity == "subsystem:workers" {
			found = true
			if m.Measurements["workers.tasks_total"] < 1 {
				t.Fatalf("workers subsystem measurements: %v", m.Measurements)
			}
		}
	}
	if !found {
		t.Fatal("no workers subsystem in /api/v1/metrics")
	}
}

func TestAPIArchive(t *testing.T) {
	srv, wsys, _ := testServer(t)

	// Without an archival store, archive resources are 404s with envelopes.
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/archive", nil), http.StatusNotFound, "not_found")
	wantEnvelope(t, getResp(t, srv.URL+"/api/v1/archive/abc", nil), http.StatusNotFound, "not_found")

	// Wire a three-volume store and archive one record's metadata.
	vols := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	store, err := archive.OpenStore(vols)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := wsys.Core.NewPreservationManager(store, core.LevelDocumentation)
	if err != nil {
		t.Fatal(err)
	}
	wsys.Preservation = pm
	var rec *fnjv.Record
	wsys.Core.Records.Scan(func(r *fnjv.Record) bool { rec = r; return false })
	man, err := pm.ArchiveRecord(rec, "")
	if err != nil {
		t.Fatal(err)
	}

	var ov struct {
		Volumes  int `json:"volumes"`
		Total    int `json:"total"`
		Holdings []struct {
			ID       string `json:"id"`
			Replicas int    `json:"replicas"`
			Healthy  int    `json:"healthy"`
		} `json:"holdings"`
	}
	decodeJSON(t, getResp(t, srv.URL+"/api/v1/archive", nil), 200, &ov)
	if ov.Volumes != 3 || ov.Total != 1 || len(ov.Holdings) != 1 {
		t.Fatalf("overview: %+v", ov)
	}
	if h := ov.Holdings[0]; h.ID != man.ID || h.Healthy != 3 {
		t.Fatalf("holding: %+v", h)
	}

	resp := getResp(t, srv.URL+"/api/v1/archive/"+man.ID, nil)
	etag := resp.Header.Get("ETag")
	var obj struct {
		Manifest struct {
			ID     string `json:"id"`
			SHA256 string `json:"sha256"`
		} `json:"manifest"`
		Replicas []replicaJSON `json:"replicas"`
	}
	decodeJSON(t, resp, 200, &obj)
	if obj.Manifest.ID != man.ID || obj.Manifest.SHA256 != man.SHA256 || len(obj.Replicas) != 3 {
		t.Fatalf("object: %+v", obj)
	}
	if etag == "" {
		t.Fatal("AIP manifest response has no ETag")
	}
	r304 := getResp(t, srv.URL+"/api/v1/archive/"+man.ID, map[string]string{"If-None-Match": etag})
	r304.Body.Close()
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("manifest revalidation: %d, want 304", r304.StatusCode)
	}
}
