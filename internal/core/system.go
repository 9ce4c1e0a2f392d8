package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/adapter"
	"repro/internal/cluster"
	"repro/internal/curation"
	"repro/internal/fnjv"
	"repro/internal/provenance"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// System wires the full architecture of Fig. 1: the collection store, the
// workflow repository and engine, the provenance manager and repository, the
// curation ledger and the quality manager. Unsharded, every component shares
// one embedded database; with Options.Shards > 1 the collection, provenance
// and trace stores are shard routers over a cluster of databases (package
// shard) and only the workflow repository and ledger stay on the meta
// database — either way the fields present the same interfaces, so
// everything above core is unaware of the topology.
type System struct {
	// DB is the single backing database when unsharded, and the meta
	// database (workflow repository, curation ledger) when sharded.
	DB *storage.DB
	// Cluster is the shard cluster; nil when unsharded.
	Cluster   *shard.Cluster
	Records   fnjv.Records
	Workflows *workflow.Repository
	Registry  *workflow.Registry
	Engine    *workflow.Engine
	// Workers aggregates worker liveness and queue gauges across every
	// event-engine run of this system; the web layer serves it live.
	Workers    *workflow.WorkerRegistry
	Provenance provenance.Repo
	Ledger     *curation.Ledger
	Quality    *quality.Manager
	// Leases arbitrates fenced run ownership between orchestrators (package
	// cluster): an orchestrated run is claimed here before its first history
	// append, heartbeated while it executes, and stolen — with a fencing-token
	// bump that structurally cuts the old owner off — when its orchestrator
	// dies. Lives on DB (the meta database when sharded).
	Leases *cluster.Store
	// Admissions is the durable queue of admitted-but-unstarted runs: every
	// async detection request lands here with a pre-minted run ID, and the
	// scheduler pool drains it. Lives on DB (the meta database when sharded),
	// so a restarted process sees exactly the admissions the dead one left.
	Admissions *workflow.AdmissionQueue
	// Gateway, when set, observes run lifecycles on behalf of out-of-process
	// workers (cluster.Server implements it); every detection engine built by
	// this system announces its runs there.
	Gateway workflow.RunGateway
	// Probe observes service executions (the Workflow Adapter's measured
	// quality byproducts).
	Probe *adapter.Probe
	// Traces is the persisted per-run span table: every finished detection
	// run's span tree lands here, keyed by run ID, queryable forever next to
	// the run's OPM graph.
	Traces telemetry.TraceStore
	// TraceRing holds the most recent finished spans process-wide — the
	// "what just happened" view the web layer serves.
	TraceRing *telemetry.Ring
}

// Options configures Open.
type Options struct {
	// Sync is the WAL policy of the backing database (default SyncOnClose).
	Sync storage.SyncPolicy
	// Shards > 1 opens a sharded system: records, provenance runs/history,
	// traces and archive holdings partition across that many shard databases
	// under dir (consistent hashing, persisted shard map), while workflow
	// definitions and the curation ledger stay on a meta database. 0 or 1 is
	// the single-database layout.
	Shards int
	// ShardDeadline bounds each cross-shard scatter-gather leg (default 2s).
	ShardDeadline time.Duration
	// CommitDelay adds a deterministic simulated device latency to every
	// SyncAlways WAL commit (see storage.Options.CommitDelay). Load
	// experiments only; 0 in production.
	CommitDelay time.Duration
}

// Open opens (or creates) a preservation system rooted at dir.
func Open(dir string, opts Options) (*System, error) {
	if opts.Shards > 1 {
		return openSharded(dir, opts)
	}
	db, err := storage.Open(dir, storage.Options{Sync: opts.Sync, CommitDelay: opts.CommitDelay})
	if err != nil {
		return nil, err
	}
	s := &System{DB: db, Registry: workflow.NewRegistry(), Probe: adapter.NewProbe()}
	records, err := fnjv.NewStore(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Records = records
	if s.Workflows, err = workflow.NewRepository(db); err != nil {
		db.Close()
		return nil, err
	}
	prov, err := provenance.NewRepository(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Provenance = prov
	if s.Ledger, err = curation.NewLedger(db); err != nil {
		db.Close()
		return nil, err
	}
	traces, err := telemetry.NewSpanStore(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	s.Traces = traces
	if s.Leases, err = cluster.NewStore(db); err != nil {
		db.Close()
		return nil, err
	}
	if s.Admissions, err = workflow.NewAdmissionQueue(db); err != nil {
		db.Close()
		return nil, err
	}
	s.TraceRing = telemetry.NewRing(0)
	s.Engine = workflow.NewEngine(s.Registry)
	s.Workers = workflow.NewWorkerRegistry()
	s.Quality = quality.NewManager()
	return s, nil
}

// openSharded opens the sharded layout: a shard cluster for the partitioned
// stores plus a meta database for the components that stay global.
func openSharded(dir string, opts Options) (*System, error) {
	shards, err := shard.Open(dir, shard.Options{
		Shards:      opts.Shards,
		Sync:        opts.Sync,
		Deadline:    opts.ShardDeadline,
		CommitDelay: opts.CommitDelay,
	})
	if err != nil {
		return nil, err
	}
	db, err := storage.Open(filepath.Join(dir, "meta"), storage.Options{Sync: opts.Sync, CommitDelay: opts.CommitDelay})
	if err != nil {
		shards.Close()
		return nil, err
	}
	s := &System{
		DB:         db,
		Cluster:    shards,
		Registry:   workflow.NewRegistry(),
		Probe:      adapter.NewProbe(),
		Records:    shards.Records(),
		Provenance: shards.Provenance(),
		Traces:     shards.Traces(),
	}
	if s.Workflows, err = workflow.NewRepository(db); err != nil {
		db.Close()
		shards.Close()
		return nil, err
	}
	if s.Ledger, err = curation.NewLedger(db); err != nil {
		db.Close()
		shards.Close()
		return nil, err
	}
	if s.Leases, err = cluster.NewStore(db); err != nil {
		db.Close()
		shards.Close()
		return nil, err
	}
	if s.Admissions, err = workflow.NewAdmissionQueue(db); err != nil {
		db.Close()
		shards.Close()
		return nil, err
	}
	s.TraceRing = telemetry.NewRing(0)
	s.Engine = workflow.NewEngine(s.Registry)
	s.Workers = workflow.NewWorkerRegistry()
	s.Quality = quality.NewManager()
	return s, nil
}

// saveTrace stamps, persists, and mirrors the spans of one run. Resumed runs
// append after any spans the crashed session persisted.
func (s *System) saveTrace(runID string, spans []telemetry.Span) error {
	if runID == "" || len(spans) == 0 {
		return nil
	}
	telemetry.StampTrace(spans, runID)
	telemetry.DetachExternalParents(spans)
	if s.TraceRing != nil {
		s.TraceRing.Add(spans...)
	}
	if s.Traces == nil {
		return nil
	}
	return s.Traces.Append(runID, spans)
}

// Close flushes and closes the backing database(s).
func (s *System) Close() error {
	err := s.DB.Close()
	if s.Cluster != nil {
		if cerr := s.Cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DetectionWorkflowID is the repository ID of the case-study workflow.
const DetectionWorkflowID = "wf-outdated-species-detection"

// resolveResult is the JSON datum emitted per name by the Catalog_of_life
// processor.
type resolveResult struct {
	Name      string `json:"name"`
	Status    string `json:"status"` // accepted | synonym | provisionally accepted | unknown | unavailable
	Accepted  string `json:"accepted,omitempty"`
	Reference string `json:"reference,omitempty"`
	// Degraded marks an answer served from a stale cache during an authority
	// outage (see taxonomy.ResilientResolver) — usable, but visibly not fresh.
	Degraded bool `json:"degraded,omitempty"`
}

// detectionSummary is the JSON datum emitted by the Summarize processor —
// the Fig. 2 progress numbers.
type detectionSummary struct {
	DistinctNames int               `json:"distinct_names"`
	Outdated      int               `json:"outdated"`
	Unknown       int               `json:"unknown"`
	Unavailable   int               `json:"unavailable"`
	Degraded      int               `json:"degraded,omitempty"`
	Renames       map[string]string `json:"renames"`
	References    map[string]string `json:"references,omitempty"`
}

// detectionRegistry builds the service registry one detection run owns: the
// case-study services bound to resolver, batching authority round trips
// ahead along names, the run's own input in the order its elements execute.
// Each run gets its own, so concurrent runs never see each other's resolver.
func detectionRegistry(resolver taxonomy.Resolver, names []string) *workflow.Registry {
	reg := workflow.NewRegistry()
	registerDetectionServices(reg, resolver, names)
	return reg
}

// RegisterDetectionServicesInto binds the case-study services to any service
// registry — for example the private registry of an out-of-process worker
// (cmd/worker), which executes the same services against its own resolver
// and learns the names one call at a time.
func RegisterDetectionServicesInto(registry *workflow.Registry, resolver taxonomy.Resolver) {
	registerDetectionServices(registry, resolver, nil)
}

func registerDetectionServices(registry *workflow.Registry, resolver taxonomy.Resolver, order []string) {
	// Coalesce per-element resolutions into shared authority round trips:
	// each element resolves one name, and without this every element pays
	// its own round trip. With the run's name list the leading call of each
	// batch fills it with the names still to come; without one, only calls
	// concurrently in flight share. A resolver with no batch capability comes
	// back unchanged.
	resolver = taxonomy.Coalesce(resolver, taxonomy.CoalescerOptions{})
	if co, ok := resolver.(*taxonomy.CoalescingResolver); ok {
		co.Expect(order)
	}
	registry.Register("col.resolve", func(ctx context.Context, call workflow.Call) (map[string]workflow.Data, error) {
		name := call.Input("name").String()
		res, err := resolver.Resolve(ctx, name)
		rr := resolveResult{Name: name}
		switch {
		case err == nil:
			rr.Status = res.Status.String()
			rr.Accepted = res.AcceptedName
			rr.Degraded = res.Degraded
			if len(res.History) > 0 {
				rr.Reference = res.History[len(res.History)-1].Reference
			}
		default:
			// Unknown and unavailable are data, not workflow failures: the
			// pipeline must survive authority hiccups (availability 0.9).
			if res.Status == taxonomy.StatusUnknown && err != nil {
				rr.Status = "unknown"
			}
			if errIsUnavailable(err) {
				rr.Status = "unavailable"
			}
		}
		blob, err := json.Marshal(rr)
		if err != nil {
			return nil, err
		}
		return map[string]workflow.Data{"result": workflow.Scalar(string(blob))}, nil
	})

	registry.Register("detect.summarize", func(_ context.Context, call workflow.Call) (map[string]workflow.Data, error) {
		sum := detectionSummary{Renames: map[string]string{}, References: map[string]string{}}
		for _, item := range call.Input("results").Items() {
			var rr resolveResult
			if err := json.Unmarshal([]byte(item.String()), &rr); err != nil {
				return nil, fmt.Errorf("summarize: bad result %q: %w", item.String(), err)
			}
			sum.DistinctNames++
			if rr.Degraded {
				sum.Degraded++
			}
			switch rr.Status {
			case "synonym":
				sum.Outdated++
				sum.Renames[rr.Name] = rr.Accepted
				sum.References[rr.Name] = rr.Reference
			case "provisionally accepted":
				sum.Outdated++
				sum.Renames[rr.Name] = "Nomen inquirendum"
				sum.References[rr.Name] = rr.Reference
			case "unknown":
				sum.Unknown++
			case "unavailable":
				sum.Unavailable++
			}
		}
		blob, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		return map[string]workflow.Data{"summary": workflow.Scalar(string(blob))}, nil
	})
}

func errIsUnavailable(err error) bool {
	return errors.Is(err, taxonomy.ErrUnavailable)
}

// DetectionWorkflow builds the Fig. 3 workflow: FNJV sound metadata in,
// Catalogue-of-Life check per name, summary of updated species names out.
func DetectionWorkflow() *workflow.Definition {
	return &workflow.Definition{
		ID:          DetectionWorkflowID,
		Name:        "Outdated Species Name Detection Workflow",
		Description: "checks FNJV species names against the Catalogue of Life and summarizes outdated ones",
		Inputs:      []workflow.Port{{Name: "names", Depth: 1}},
		Outputs:     []workflow.Port{{Name: "summary"}},
		Processors: []*workflow.Processor{
			{
				Name: "Catalog_of_life", Service: "col.resolve",
				Inputs:  []workflow.Port{{Name: "name", Depth: 0}},
				Outputs: []workflow.Port{{Name: "result", Depth: 0}},
			},
			{
				Name: "Summarize", Service: "detect.summarize",
				Inputs:  []workflow.Port{{Name: "results", Depth: 1}},
				Outputs: []workflow.Port{{Name: "summary", Depth: 0}},
			},
		},
		Links: []workflow.Link{
			{Source: workflow.Endpoint{Port: "names"}, Target: workflow.Endpoint{Processor: "Catalog_of_life", Port: "name"}},
			{Source: workflow.Endpoint{Processor: "Catalog_of_life", Port: "result"}, Target: workflow.Endpoint{Processor: "Summarize", Port: "results"}},
			{Source: workflow.Endpoint{Processor: "Summarize", Port: "summary"}, Target: workflow.Endpoint{Port: "summary"}},
		},
	}
}

// AnnotatedDetectionWorkflow returns the detection workflow instrumented by
// the Workflow Adapter with the paper's Listing 1 quality annotations.
func AnnotatedDetectionWorkflow(reputation, availability string, author string, when time.Time) (*workflow.Definition, error) {
	return adapter.AddQualityAnnotations(DetectionWorkflow(), "Catalog_of_life",
		map[string]string{"reputation": reputation, "availability": availability},
		author, when)
}

// DistinctNames returns the sorted distinct species names of the collection
// as workflow input data.
func (s *System) DistinctNames() ([]string, error) {
	distinct, err := s.Records.DistinctSpecies()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(distinct))
	for n := range distinct {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// TenantDistinctNames scopes DistinctNames to one tenant's records — the
// records whose IDs carry the tenant qualifier. The default tenant ""
// keeps the legacy whole-collection behaviour.
func (s *System) TenantDistinctNames(tenant string) ([]string, error) {
	if tenant == "" {
		return s.DistinctNames()
	}
	prefix := tenant + shard.Sep
	set := map[string]struct{}{}
	collect := func(r *fnjv.Record) bool {
		if strings.HasPrefix(r.ID, prefix) {
			set[r.Species] = struct{}{}
		}
		return true
	}
	// A sharded store scans only the tenant's own shard (tenant affinity):
	// the tenant keeps serving while unrelated shards are down.
	var err error
	if ts, ok := s.Records.(interface {
		ScanTenant(string, func(*fnjv.Record) bool) error
	}); ok {
		err = ts.ScanTenant(tenant, collect)
	} else {
		err = s.Records.Scan(collect)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
