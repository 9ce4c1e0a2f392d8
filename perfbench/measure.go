package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/web"
)

// pollInterval is how often an api-detect client re-reads its run. Each
// poll takes a snapshot view on the server, and the clients share the host
// with it, so polling much faster would mostly measure the poll load.
const pollInterval = 20 * time.Millisecond

// readRate is the lineage-read generator's open-loop rate, in requests per
// second, and readSLO the latency limit a read must meet from its due time.
const (
	readRate = 30
	readSLO  = 250 * time.Millisecond
)

// opTimeout bounds one operation; a run not terminal by then is a failure.
const opTimeout = 60 * time.Second

// sample is one operation the load generator attempted.
type sample struct {
	op    int64
	kind  string // detect, runs, graph or records
	runID string
	ok    bool
	// start is when the operation began — for an open-loop read, when it
	// was due — and end when its result was in hand.
	start, end time.Time
	// sent is when a read left the generator.
	sent time.Time
	// accepted, started and finished are an async detect's 202 receipt and
	// its run row's timestamps; lastGet is when the poll that saw the
	// terminal state was sent.
	accepted, started, finished, lastGet time.Time
	outcome                              *core.DetectionOutcome
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// phase is one measured window.
type phase struct {
	began     time.Time
	wall      time.Duration
	cpu       time.Duration // process CPU time (user + system) over the phase
	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	non2xx    int
	failures  []string
	// tenantScans are direct TenantDistinctNames timings (traced only).
	tenantScans []time.Duration
}

func (p *phase) add(s sample, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	s.ok = err == nil
	if err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, fmt.Sprintf("%s %s: %v", s.kind, s.runID, err))
		}
	}
	p.samples = append(p.samples, s)
}

func (p *phase) noteNon2xx() {
	p.mu.Lock()
	p.non2xx++
	p.mu.Unlock()
}

// ok returns the successful samples of the given kinds.
func (p *phase) ok(kinds ...string) []sample {
	var out []sample
	for _, s := range p.samples {
		if !s.ok {
			continue
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// samplesOf returns every attempted sample of the given kind.
func (p *phase) samplesOf(kind string) []sample {
	var out []sample
	for _, s := range p.samples {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// measure runs the workload's load for d and returns what it saw.
func (e *env) measure(d time.Duration, traced bool) *phase {
	cpu0 := cpuTime()
	p := &phase{began: time.Now()}
	if e.log != nil {
		e.log.on.Store(traced)
		defer e.log.on.Store(false)
	}
	deadline := p.began.Add(d)
	var wg sync.WaitGroup
	switch e.spec.name {
	case "api-detect":
		client := loopbackClient(len(e.in.tenants))
		for _, t := range e.in.tenants {
			wg.Add(1)
			go func(t *tenantInput) {
				defer wg.Done()
				e.apiDetectClient(p, client, t, deadline)
			}(t)
		}
	case "authority-rtt":
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.detectLoop(p, deadline, true)
		}()
	case "lineage-read":
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.detectLoop(p, deadline, false)
		}()
		go func() {
			defer wg.Done()
			e.readLoop(p, loopbackClient(1), deadline)
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.began)
	p.cpu = cpuTime() - cpu0
	return p
}

// cpuTime is the process's CPU time so far. Time the host steals from the
// virtual CPUs is not in it, so it stays steady where wall-clock figures
// swing with neighbouring load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loopbackClient is an HTTP client holding at most conns connections.
func loopbackClient(conns int) *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// detectLoop is a closed-loop client calling RunDetection, cycling through
// the tenants and pausing the workload's think time between runs. flush
// empties the authority cache before each run: a reassessment after the
// cache's TTL has passed.
func (e *env) detectLoop(p *phase, deadline time.Time, flush bool) {
	ctx := context.Background()
	for i := 0; time.Now().Before(deadline); i++ {
		t := e.in.tenants[i%len(e.in.tenants)]
		if flush && e.resilient != nil {
			e.resilient.Cache().Flush()
		}
		s := sample{kind: "detect", start: time.Now()}
		out, err := e.sys.RunDetection(ctx, e.detectResolver(), runOptions(e.spec, t.name))
		s.end = time.Now()
		if err == nil {
			s.runID, s.outcome = out.RunID, out
			err = checkOutcome(out, t, e.refUpdates[t.name])
		}
		if s.op = e.log.begin(); s.op != 0 {
			e.log.add(span{ID: s.op, Op: s.op, Layer: layerBench, Name: "RunDetection", Start: s.start, End: s.end})
			e.tenantScan(p, t.name)
		}
		p.add(s, err)
		if e.spec.pause > 0 && time.Now().Add(e.spec.pause).Before(deadline) {
			time.Sleep(e.spec.pause)
		}
	}
}

// tenantScan times the name gathering a run starts with, as a direct call.
func (e *env) tenantScan(p *phase, tenant string) {
	start := time.Now()
	if _, err := e.sys.TenantDistinctNames(tenant); err != nil {
		return
	}
	el := time.Since(start)
	p.mu.Lock()
	p.tenantScans = append(p.tenantScans, el)
	p.mu.Unlock()
}

// runJSON is the part of a /api/v1/runs entry the benchmark reads.
type runJSON struct {
	RunID      string     `json:"run_id"`
	Status     string     `json:"status"`
	StartedAt  time.Time  `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
}

// apiDetectClient is one closed-loop API user: POST /api/v1/detect as its
// tenant, then poll the run until it is terminal.
func (e *env) apiDetectClient(p *phase, client *http.Client, t *tenantInput, deadline time.Time) {
	base := e.webSrv.URL
	for time.Now().Before(deadline) {
		s := sample{op: e.log.begin(), kind: "detect", start: time.Now()}
		err := e.apiDetectOnce(p, client, base, t, &s)
		if s.end.IsZero() {
			s.end = time.Now()
		}
		e.log.add(span{ID: s.op, Op: s.op, Layer: layerBench, Name: "detect", Start: s.start, End: s.end})
		if err == nil {
			if s.outcome = e.outcomes.await(s.runID, opTimeout); s.outcome == nil {
				err = fmt.Errorf("no outcome reported for run %s", s.runID)
			} else {
				err = checkOutcome(s.outcome, t, e.refUpdates[t.name])
			}
		}
		if s.op != 0 {
			e.tenantScan(p, t.name)
		}
		p.add(s, err)
		if err != nil {
			time.Sleep(pollInterval) // no hot loop against a failing server
		}
	}
}

func (e *env) apiDetectOnce(p *phase, client *http.Client, base string, t *tenantInput, s *sample) error {
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/detect", nil)
	if err != nil {
		return err
	}
	req.Header.Set(web.TenantHeader, t.name)
	code, body, err := do(client, req)
	s.accepted = time.Now()
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		p.noteNon2xx()
		return fmt.Errorf("POST /api/v1/detect: %d %s", code, body)
	}
	var adm struct {
		RunID string `json:"run_id"`
	}
	if err := json.Unmarshal(body, &adm); err != nil || adm.RunID == "" {
		return fmt.Errorf("POST /api/v1/detect: bad body %q", body)
	}
	s.runID = adm.RunID
	e.log.add(span{Op: s.op, Parent: s.op, Layer: layerWeb, Name: "POST /api/v1/detect", Start: s.start, End: s.accepted})

	seen := false
	for {
		if time.Since(s.start) > opTimeout {
			return fmt.Errorf("run %s not terminal after %v", s.runID, opTimeout)
		}
		req, err := http.NewRequest(http.MethodGet, base+"/api/v1/runs/"+s.runID, nil)
		if err != nil {
			return err
		}
		req.Header.Set(web.TenantHeader, t.name)
		sent := time.Now()
		code, body, err := do(client, req)
		got := time.Now()
		e.log.add(span{Op: s.op, Parent: s.op, Layer: layerWeb, Name: "GET /api/v1/runs/{id}", Start: sent, End: got})
		switch {
		case err != nil:
			return err
		case code == http.StatusNotFound && !seen:
			// Admitted, not yet claimed: the documented pre-claim state.
		case code != http.StatusOK:
			p.noteNon2xx()
			return fmt.Errorf("GET run %s: %d %s", s.runID, code, body)
		default:
			seen = true
			var run runJSON
			if err := json.Unmarshal(body, &run); err != nil {
				return fmt.Errorf("GET run %s: %w", s.runID, err)
			}
			if run.Status != "running" {
				s.end, s.lastGet = got, sent
				if run.Status != "completed" {
					return fmt.Errorf("run %s ended %s", s.runID, run.Status)
				}
				if run.FinishedAt == nil {
					return fmt.Errorf("run %s completed without finished_at", s.runID)
				}
				s.started, s.finished = run.StartedAt, *run.FinishedAt
				return nil
			}
		}
		time.Sleep(pollInterval)
	}
}

// do sends req and reads the whole body.
func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// readLoop is the lineage-read generator: one connection, an open loop at
// readRate, each read timed from its due time. Reads rotate through a
// seeded shuffle of runs page, graph and records, so the mix is 1:1:1.
func (e *env) readLoop(p *phase, client *http.Client, deadline time.Time) {
	rng := rand.New(rand.NewSource(e.seed*7919 + 17))
	kinds := []string{"runs", "graph", "records"}
	interval := time.Second / readRate
	for k := 0; ; k++ {
		due := p.began.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return
		}
		if k%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s := sample{kind: kinds[k%len(kinds)], start: due}
		var ref graphRef
		path := ""
		switch s.kind {
		case "runs":
			path = "/api/v1/runs?limit=16"
		case "graph":
			ref = e.graphs[rng.Intn(len(e.graphs))]
			s.runID = ref.runID
			path = "/api/v1/runs/" + ref.runID + "/graph"
		case "records":
			path = "/api/v1/records?limit=50"
		}
		req, err := http.NewRequest(http.MethodGet, e.webSrv.URL+path, nil)
		if err != nil {
			p.add(s, err)
			continue
		}
		s.sent = time.Now()
		code, body, err := do(client, req)
		s.end = time.Now()
		if err == nil && code != http.StatusOK {
			p.noteNon2xx()
			err = fmt.Errorf("GET %s: %d %s", path, code, body)
		}
		if err == nil {
			err = checkRead(s.kind, body, ref)
		}
		if s.op = e.log.begin(); s.op != 0 {
			e.log.add(span{ID: s.op, Op: s.op, Layer: layerBench, Name: "read", Start: s.start, End: s.end})
			e.log.add(span{Op: s.op, Parent: s.op, Layer: layerWeb, Name: "GET " + path, Start: s.sent, End: s.end})
		}
		p.add(s, err)
	}
}

// checkRead is the read oracle: a graph has its run's reference size, a
// runs page is full and in ascending run order, and a records page is full
// and ordered by species.
func checkRead(kind string, body []byte, ref graphRef) error {
	switch kind {
	case "graph":
		nodes := bytes.Count(body, []byte("<artifact id=")) + bytes.Count(body, []byte("<process id=")) +
			bytes.Count(body, []byte("<agent id="))
		edges := bytes.Count(body, []byte("<dependency type="))
		if nodes != ref.nodes || edges != ref.edges {
			return fmt.Errorf("graph of %s: %d nodes %d edges, want %d and %d", ref.runID, nodes, edges, ref.nodes, ref.edges)
		}
	case "runs":
		var page struct {
			Runs []runJSON `json:"runs"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("runs page: %w", err)
		}
		if len(page.Runs) != 16 {
			return fmt.Errorf("runs page holds %d runs, want 16", len(page.Runs))
		}
		if !sort.SliceIsSorted(page.Runs, func(i, j int) bool { return page.Runs[i].RunID < page.Runs[j].RunID }) {
			return fmt.Errorf("runs page out of order")
		}
	case "records":
		var page struct {
			Records []struct {
				Species string `json:"species"`
			} `json:"records"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return fmt.Errorf("records page: %w", err)
		}
		if len(page.Records) != 50 {
			return fmt.Errorf("records page holds %d records, want 50", len(page.Records))
		}
		for i := 1; i < len(page.Records); i++ {
			if strings.Compare(page.Records[i-1].Species, page.Records[i].Species) > 0 {
				return fmt.Errorf("records page out of species order")
			}
		}
	}
	return nil
}
