package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/web"
)

// workloadSpec is the shape of one workload's system and load.
type workloadSpec struct {
	name    string
	tenants int
	// shards > 1 opens the sharded layout.
	shards int
	// prepop is how many completed runs per tenant setup creates; the
	// first of each tenant is the reference run the oracle compares with.
	prepop int
	// remote puts the authority behind HTTP with authorityLatency per
	// request, wrapped the way cmd/fnjvweb -authority wraps it.
	remote bool
	// scheduler attaches a scheduler, which makes POST /api/v1/detect
	// asynchronous.
	scheduler bool
	// web serves the /api/v1 surface on a loopback listener.
	web bool
	// parallel is RunOptions.Parallel for the workload's detection runs.
	parallel int
	// pause is the detect client's think time between runs.
	pause time.Duration
}

// The lineage-read writer pauses between runs: the embedded store keeps
// every run in memory (about 6 MB of resident set per run at these sizes,
// twice that at the collector's peak), so a writer running back to back
// would grow the process to several GB within one measurement.
var workloads = []workloadSpec{
	{name: "api-detect", tenants: 2, shards: 1, prepop: 1, scheduler: true, web: true},
	{name: "authority-rtt", tenants: 1, shards: 1, prepop: 1, remote: true, parallel: 4},
	{name: "lineage-read", tenants: 4, shards: 4, prepop: 8, web: true, pause: 200 * time.Millisecond},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// authorityLatency is the fixed round-trip latency the remote authority
// injects per request.
const authorityLatency = 2 * time.Millisecond

// The production wiring. cmd/fnjvweb builds its system with these values;
// every chaos knob, simulated latency and tuning override stays at its zero
// value, so the benchmark measures the program users run.

func openOptions(w workloadSpec) core.Options {
	return core.Options{Sync: storage.SyncOnClose, Shards: w.shards}
}

func runOptions(w workloadSpec, tenant string) core.RunOptions {
	return core.RunOptions{Tenant: tenant, Parallel: w.parallel}
}

// schedulerName and schedulerSeed fix the scheduler's poll-jitter stream:
// cmd/fnjvweb seeds it with its -seed default, 2014, and mixes in its
// process name. Holding both fixed gives every run the same sequence of
// admission waits, so the figures do not swing with a few dozen random
// draws; the inputs still follow --seed.
const (
	schedulerName = "web-perfbench"
	schedulerSeed = 2014
)

func newScheduler(sys *core.System, backend cluster.SchedulerBackend) *cluster.Scheduler {
	return &cluster.Scheduler{Name: schedulerName, Leases: sys.Leases, Backend: backend, Seed: schedulerSeed}
}

// remoteClient and remoteResolver build the authority stack exactly as
// cmd/fnjvweb -authority does, less its breaker state-change log line.
func remoteClient(url string) *taxonomy.Client {
	client := taxonomy.NewClient(url)
	client.Retries = 6
	return client
}

func remoteResolver(url string) *taxonomy.ResilientResolver {
	return taxonomy.NewResilientResolver(remoteClient(url), taxonomy.ResilienceOptions{TTL: time.Hour})
}

// env is one set-up system with everything the workload drives.
type env struct {
	spec workloadSpec
	seed int64
	in   *inputs
	dir  string
	sys  *core.System

	// resolver is the authority as production hands it to core; timed is
	// the benchmark's timing wrapper around it (nil when untraced).
	resolver  taxonomy.Resolver
	timed     taxonomy.Resolver
	resilient *taxonomy.ResilientResolver
	authority *taxonomy.Service
	authSrv   *httptest.Server

	webSrv   *httptest.Server
	sched    *cluster.Scheduler
	outcomes *outcomeBox

	// refUpdates is each tenant's reference run's update count.
	refUpdates map[string]int
	// graphs are the pre-populated runs with their reference graph sizes.
	graphs []graphRef
	// log holds the benchmark's spans; nil when untraced.
	log *spanLog
}

type graphRef struct {
	runID        string
	nodes, edges int
}

// detectResolver is the resolver a detection run is handed: the production
// one, or its timing wrapper while spans are being recorded.
func (e *env) detectResolver() taxonomy.Resolver {
	if e.timed != nil && e.log.recording() {
		return e.timed
	}
	return e.resolver
}

// setup generates the inputs, opens the system the way cmd/fnjvweb does,
// loads the records, starts the scheduler and web surface the workload
// needs, and pre-populates completed runs, checking each against the
// oracle. traced installs the benchmark's timing wrappers (recording stays
// off until a traced phase turns it on).
func setup(spec workloadSpec, seed int64, dir string, traced bool) (*env, error) {
	ctx := context.Background()
	e := &env{spec: spec, seed: seed, dir: dir, refUpdates: map[string]int{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	in, err := generateInputs(seed, spec.tenants, spec.shards)
	if err != nil {
		return nil, err
	}
	e.in = in
	if e.sys, err = core.Open(dir, openOptions(spec)); err != nil {
		return nil, err
	}
	for _, t := range in.tenants {
		if err := e.sys.Records.PutAll(t.records); err != nil {
			return nil, fmt.Errorf("loading %s: %w", t.name, err)
		}
	}

	e.resolver = in.taxa.Checklist
	if spec.remote {
		e.authority = taxonomy.NewService(in.taxa.Checklist, taxonomy.WithLatency(authorityLatency))
		e.authSrv = httptest.NewServer(e.authority)
		e.resilient = remoteResolver(e.authSrv.URL)
		e.resolver = e.resilient
	}
	if traced {
		e.log = &spanLog{}
		e.timed = wrapResolver(e.resolver, e.log)
		e.sys.Provenance = timedRepo{Repo: e.sys.Provenance, log: e.log}
		e.sys.Records = wrapRecords(e.sys.Records, e.log)
	}

	if _, err := e.sys.SweepUnfinishedRuns(ctx, e.resolver, core.RunOptions{Orchestrator: schedulerName}); err != nil {
		return nil, fmt.Errorf("startup sweep: %w", err)
	}
	gw := cluster.NewServer(e.sys.Workers)
	e.sys.Gateway = gw

	for i := 0; i < spec.prepop; i++ {
		for _, t := range in.tenants {
			out, err := e.sys.RunDetection(ctx, e.detectResolver(), runOptions(spec, t.name))
			if err != nil {
				return nil, fmt.Errorf("setup run for %s: %w", t.name, err)
			}
			ref := -1
			if i > 0 {
				ref = e.refUpdates[t.name]
			}
			if err := checkOutcome(out, t, ref); err != nil {
				return nil, fmt.Errorf("setup run: %w", err)
			}
			if i == 0 {
				e.refUpdates[t.name] = out.UpdatesCreated
			}
			e.graphs = append(e.graphs, graphRef{runID: out.RunID})
		}
	}

	wsys := &web.System{Core: e.sys, Resolver: e.resolver, Checklist: in.taxa.Checklist, Resilient: e.resilient}
	if spec.scheduler {
		e.outcomes = newOutcomeBox()
		record := func(out *core.DetectionOutcome) {
			wsys.RecordOutcome(out)
			e.outcomes.put(out)
		}
		handed := e.resolver
		if e.timed != nil {
			handed = e.timed
		}
		backend := e.sys.SchedulerBackend(handed, core.RunOptions{Orchestrator: schedulerName}, record)
		e.sched = newScheduler(e.sys, backend)
		if err := e.sched.Start(); err != nil {
			return nil, fmt.Errorf("starting scheduler: %w", err)
		}
		wsys.Scheduler = e.sched
	}
	if spec.web {
		mux := http.NewServeMux()
		mux.Handle("/cluster/v1/", gw)
		mux.Handle("/", web.NewServer(wsys))
		e.webSrv = httptest.NewServer(mux)
	}
	ok = true
	return e, nil
}

// loadGraphRefs records the reference node and edge counts of the
// pre-populated runs, which every graph read is checked against.
func (e *env) loadGraphRefs() error {
	for i := range e.graphs {
		g, err := e.sys.Provenance.Graph(e.graphs[i].runID)
		if err != nil {
			return fmt.Errorf("reference graph of %s: %w", e.graphs[i].runID, err)
		}
		e.graphs[i].nodes, e.graphs[i].edges = g.NodeCount(), g.EdgeCount()
	}
	return nil
}

// close stops everything setup started and removes the data directory.
func (e *env) close() {
	if e.sched != nil {
		e.sched.Stop()
	}
	if e.webSrv != nil {
		e.webSrv.Close()
	}
	if e.authSrv != nil {
		e.authSrv.Close()
	}
	if e.sys != nil {
		if err := e.sys.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing system:", err)
		}
	}
	os.RemoveAll(e.dir)
}

// outcomeBox hands the outcomes the scheduler reports to the client that
// admitted each run, so the oracle can check asynchronous runs too.
type outcomeBox struct {
	mu      sync.Mutex
	waiting map[string]chan *core.DetectionOutcome
}

func newOutcomeBox() *outcomeBox {
	return &outcomeBox{waiting: map[string]chan *core.DetectionOutcome{}}
}

func (b *outcomeBox) slot(runID string) chan *core.DetectionOutcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch, ok := b.waiting[runID]
	if !ok {
		ch = make(chan *core.DetectionOutcome, 1)
		b.waiting[runID] = ch
	}
	return ch
}

func (b *outcomeBox) put(out *core.DetectionOutcome) {
	b.slot(out.RunID) <- out
}

// await returns the run's outcome, or nil if none arrives within timeout.
func (b *outcomeBox) await(runID string, timeout time.Duration) *core.DetectionOutcome {
	ch := b.slot(runID)
	defer func() {
		b.mu.Lock()
		delete(b.waiting, runID)
		b.mu.Unlock()
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out
	case <-t.C:
		return nil
	}
}
