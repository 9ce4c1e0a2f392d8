package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/curation"
	"repro/internal/provenance"
	"repro/internal/quality"
	"repro/internal/shard"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// DetectionOutcome bundles everything one assessment run produces: the
// Fig. 2 detection numbers, the provenance run ID, the persisted updates and
// the §IV.C quality assessment.
type DetectionOutcome struct {
	RunID            string
	WorkflowVersion  int
	DistinctNames    int
	RecordsProcessed int
	Outdated         int
	Unknown          int
	Unavailable      int
	// Degraded counts names answered from a stale cache during an authority
	// outage (taxonomy.ResilientResolver fallback) — resolved, but not fresh.
	Degraded       int
	Renames        map[string]string
	UpdatesCreated int
	Elapsed        time.Duration
	Assessment     *quality.Assessment
	// EngineMetrics snapshots the workflow engine's concurrency counters
	// for this run (invocations, elements dispatched, peak in-flight).
	EngineMetrics workflow.MetricsSnapshot
	// ProvenanceWriter snapshots the streaming provenance writer for this
	// run (queue depth, batch sizes, flush latency). Feed
	// ProvenanceWriter.Counters() to obs.FromRuntimeMetrics to persist it
	// as an ordinary observation.
	ProvenanceWriter provenance.WriterMetrics
	// Replayed lists processors whose outputs were replayed from persisted
	// history instead of re-executed (non-empty only for resumed runs).
	Replayed []string
}

// OutdatedFraction is Outdated/DistinctNames (Fig. 2: 7%).
func (o *DetectionOutcome) OutdatedFraction() float64 {
	if o.DistinctNames == 0 {
		return 0
	}
	return float64(o.Outdated) / float64(o.DistinctNames)
}

// RunOptions tunes one detection-and-assessment run.
type RunOptions struct {
	// Reputation and Availability are the expert-asserted annotations for
	// the Catalogue of Life (Listing 1: 1 and 0.9).
	Reputation   string
	Availability string
	// Author/Agent identify the annotating expert and the controlling agent.
	Author string
	Agent  string
	// MeasuredAvailability, when ≥0, is fed to the quality manager as the
	// *observed* authority availability (e.g. Client.ObservedAvailability).
	// Negative means unavailable.
	MeasuredAvailability float64
	// SkipLedger skips persisting per-record updates (benchmarks).
	SkipLedger bool
	// Parallel is the event engine's worker-pool size for the run: that many
	// worker goroutines pull activity tasks off the run's dispatch queue, so
	// at most Parallel service invocations are in flight at once. 0 or 1
	// keeps a single worker (the historical sequential behaviour). With the
	// Catalogue of Life hundreds of milliseconds away, this is the
	// difference between n×latency and n×latency/Parallel per pass.
	Parallel int
	// CrashAfterDeltas > 0 kills the run after that many provenance deltas
	// have been persisted, leaving the unfinished marker and crash-consistent
	// prefix a real process death would: the run's context is cancelled and
	// RunDetection returns a *CrashError carrying the run ID. Chaos-testing
	// hook; zero in production.
	CrashAfterDeltas int
	// WorkerKills > 0 asks up to that many workers of the run's pool to die
	// right after dequeuing a task (the task is returned to the queue and
	// redelivered). Unlike CrashAfterDeltas the run itself survives: the
	// engine keeps at least one worker alive and the remaining workers drain
	// the queue. Chaos-testing hook; zero in production.
	WorkerKills int
	// Untraced disables span collection for this run (the tracing-overhead
	// baseline). Latency histograms still record; only the span tree is
	// skipped. A tracer already present on the context is honored regardless.
	Untraced bool
	// Tenant scopes the run to one tenant: the workflow input is the distinct
	// names of that tenant's records only, per-record updates scan only those
	// records, and the minted run ID carries the tenant qualifier
	// ("<tenant>:run-000042") so the run routes to — and lists under — its
	// tenant. Empty is the default tenant (whole collection, legacy IDs).
	Tenant string
	// WriterOptions overrides the streaming provenance writer's batching
	// (group-commit size, flush interval, queue depth) for this run. Nil uses
	// the defaults. The trace context is always taken from the run.
	WriterOptions *provenance.BatchWriterOptions
	// RunID, when set together with Orchestrator, executes under this
	// pre-minted run identity instead of minting one — the admission handoff:
	// AdmitDetection mints the ID and persists the intent durably, and
	// whichever scheduler claims the admission executes it under that ID, so
	// clients can watch a run resource that exists before any orchestrator
	// picked the run up. Ignored for non-orchestrated runs.
	RunID string
	// Orchestrator, when non-empty, names the process running this run and
	// turns on fenced ownership: the run ID is minted up front and claimed as
	// a lease (System.Leases) before the first history append; the lease's
	// fencing token guards every history append and queue write; heartbeats
	// renew the lease while the run executes. If the lease is stolen — this
	// orchestrator was presumed dead — the run's context cancels and its
	// writes are rejected at the storage layer, so a standby's takeover can
	// never interleave with ours. Empty keeps the legacy single-process path
	// with zero added overhead.
	Orchestrator string
	// LeaseTTL is the run-lease time-to-live for orchestrated runs (default
	// DefaultLeaseTTL). A standby can take over ~LeaseTTL after the holder
	// stops heartbeating.
	LeaseTTL time.Duration
}

func (o *RunOptions) defaults() {
	if o.Reputation == "" {
		o.Reputation = "1"
	}
	if o.Availability == "" {
		o.Availability = "0.9"
	}
	if o.Author == "" {
		o.Author = "expert"
	}
	if o.Agent == "" {
		o.Agent = "end-user"
	}
	if o.MeasuredAvailability == 0 {
		o.MeasuredAvailability = -1
	}
}

// RunDetection executes the paper's full loop (§IV.C "the metadata curation
// process follows these steps"):
//
//  1. the expert adds quality metadata to the workflow (Workflow Adapter);
//  2. the workflow receives the FNJV sound metadata as input;
//  3. it checks for outdated names against the Catalogue of Life;
//  4. the Provenance Manager stores provenance from the run;
//  5. the output is a summary of updated species names;
//
// and then assesses quality (§IV.C): accuracy of species-name metadata plus
// the authority's reputation and availability.
func (s *System) RunDetection(ctx context.Context, resolver taxonomy.Resolver, opts RunOptions) (*DetectionOutcome, error) {
	return s.runDetection(ctx, resolver, opts, nil)
}

// runDetection is RunDetection with an optional pre-claimed orchestration:
// the admission path (RunAdmitted) claims the run lease before reading any
// run state and passes the claim down, so claim and execution are one
// ownership session. orch == nil claims here (or runs unorchestrated).
func (s *System) runDetection(ctx context.Context, resolver taxonomy.Resolver, opts RunOptions, orch *orchestration) (*DetectionOutcome, error) {
	opts.defaults()
	start := time.Now()

	// Trace context: reuse a tracer minted upstream (API boundary), else mint
	// one here — this is the trace root for CLI and experiment runs. The run
	// ID does not exist yet, so spans are stamped with it after the run.
	tracer := telemetry.TracerFrom(ctx)
	if tracer == nil && !opts.Untraced {
		tracer = telemetry.NewTracer(0)
		ctx = telemetry.WithTracer(ctx, tracer)
	}
	mark := 0
	if tracer != nil {
		mark = tracer.Len()
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, "run-detection", "core")

	// Step 1: instrument the specification.
	def, err := AnnotatedDetectionWorkflow(opts.Reputation, opts.Availability, opts.Author, start)
	if err != nil {
		return nil, err
	}
	version, err := s.Workflows.Publish(def)
	if err != nil {
		return nil, err
	}

	// Step 2: gather the metadata (this tenant's distinct names).
	names, err := s.TenantDistinctNames(opts.Tenant)
	if err != nil {
		return nil, err
	}
	items := make([]workflow.Data, len(names))
	for i, n := range names {
		items[i] = workflow.Scalar(n)
	}

	// Step 3: execute with provenance capture and adapter probing.
	reg, err := s.Probe.Instrument(def, detectionRegistry(resolver, names))
	if err != nil {
		return nil, err
	}
	collector := provenance.NewCollector(opts.Agent)
	// Orchestrated runs claim ownership before the first history append: the
	// run ID is minted here (or preset by the admission), leased under this
	// orchestrator's name, and the lease's fencing token installed as the
	// run's history fence — from this point only the token holder can append.
	runCtx := ctx
	if orch == nil && opts.Orchestrator != "" {
		runID := opts.RunID
		if runID == "" {
			prefix := ""
			if opts.Tenant != "" {
				prefix = opts.Tenant + shard.Sep
			}
			runID = workflow.MintRunID(prefix)
		}
		orch, err = s.claimRun(runID, opts)
		if err != nil {
			return nil, err
		}
	}
	if orch != nil {
		defer orch.halt()
		runCtx = orch.watch(runCtx)
	}
	// Step 4 overlaps step 3: the Provenance Manager streams graph deltas
	// into the repository while the workflow executes (write-behind,
	// group-committed batches), so completed runs are already persisted when
	// the engine returns and failed runs keep their partial provenance,
	// finalized as failed.
	wopts := provenance.BatchWriterOptions{}
	if opts.WriterOptions != nil {
		wopts = *opts.WriterOptions
	}
	wopts.Trace = ctx
	if orch != nil {
		wopts.FenceName = provenance.RunFenceName(orch.runID)
		wopts.FenceToken = orch.token()
	}
	writer, err := s.Provenance.RunWriter(wopts)
	if err != nil {
		return nil, err
	}
	var crash *provenance.CrashSink
	if opts.CrashAfterDeltas > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(runCtx)
		defer cancel()
		crash = provenance.NewCrashSink(writer, opts.CrashAfterDeltas, cancel)
		collector.AddSink(crash)
	} else {
		collector.AddSink(writer)
	}
	engine := s.detectionEngine(reg, opts)
	inputs := map[string]workflow.Data{"names": workflow.List(items...)}
	var result *workflow.RunResult
	var runErr error
	if orch != nil {
		// The run ID already exists (it is the leased resource), so execute
		// under it explicitly — Resume with an empty prefix is a fresh run
		// under a chosen identity — on a durable, fenced dispatch queue.
		engine.NewQueue = orch.newQueue
		result, runErr = engine.Resume(runCtx, def, inputs, orch.runID, nil, provenance.NewHistoryCapture(collector))
	} else {
		result, runErr = engine.Run(runCtx, def, inputs, provenance.NewHistoryCapture(collector))
	}
	werr := writer.Close()
	runID := collector.Info().RunID
	rootSpan.SetAttr("run_id", runID)
	if crash != nil && crash.Crashed() {
		// Even if the engine outran the cancellation and completed, the
		// finish delta was dropped: the run row still reads running, exactly
		// like a process death. Report the kill so the caller can resume.
		// Spans are deliberately NOT persisted — a real process death loses
		// its in-memory trace; the resume session records the run's tree.
		// An orchestrated run's lease is NOT released: it ages out exactly as
		// a dead process's would, and the standby steals it.
		if orch != nil {
			orch.abandon()
		}
		return nil, &CrashError{RunID: runID, Deltas: crash.Forwarded()}
	}
	if orch != nil {
		// Clean exit (success or failure): stop heartbeating and release the
		// lease. Releasing a stolen lease is a no-op.
		orch.finish()
		if lerr := orch.lostErr(); lerr != nil && runErr != nil {
			runErr = fmt.Errorf("%v (ownership: %w)", runErr, lerr)
		}
	}
	if runErr != nil {
		rootSpan.SetAttr("error", runErr.Error())
		rootSpan.Finish()
		if tracer != nil {
			_ = s.saveTrace(runID, tracer.Since(mark))
		}
		return nil, runErr
	}
	if werr != nil {
		return nil, fmt.Errorf("core: streaming provenance: %w", werr)
	}

	outcome, err := s.finishDetection(result, version, start, opts, engine.Metrics(), writer.Metrics())
	rootSpan.Finish()
	if err == nil && tracer != nil {
		if terr := s.saveTrace(runID, tracer.Since(mark)); terr != nil {
			return nil, fmt.Errorf("core: persisting trace: %w", terr)
		}
	}
	return outcome, err
}

// detectionEngine builds the event-sourced engine for one detection run:
// worker-pool size from opts.Parallel, worker stats into the system-wide
// registry, and the worker-kill chaos hook when requested.
func (s *System) detectionEngine(reg *workflow.Registry, opts RunOptions) *workflow.EventEngine {
	engine := workflow.NewEventEngine(reg)
	if opts.Tenant != "" {
		engine.RunIDPrefix = opts.Tenant + shard.Sep
	}
	engine.Workers = opts.Parallel
	if engine.Workers < 1 {
		engine.Workers = 1
	}
	engine.Stats = s.Workers
	engine.Gateway = s.Gateway
	if opts.WorkerKills > 0 {
		var killed atomic.Int64
		kills := int64(opts.WorkerKills)
		engine.KillWorker = func(string, int) bool {
			return killed.Add(1) <= kills
		}
	}
	return engine
}

// finishDetection turns a completed detection run into a DetectionOutcome:
// parses the summary datum, persists per-record updates, and assesses
// quality. Shared by fresh and resumed runs.
func (s *System) finishDetection(result *workflow.RunResult, version int, start time.Time, opts RunOptions, em workflow.MetricsSnapshot, wm provenance.WriterMetrics) (*DetectionOutcome, error) {
	// Step 5: parse the summary.
	var sum detectionSummary
	if err := json.Unmarshal([]byte(result.Outputs["summary"].String()), &sum); err != nil {
		return nil, fmt.Errorf("core: bad summary datum: %w", err)
	}

	outcome := &DetectionOutcome{
		RunID:            result.RunID,
		WorkflowVersion:  version,
		DistinctNames:    sum.DistinctNames,
		Outdated:         sum.Outdated,
		Unknown:          sum.Unknown,
		Unavailable:      sum.Unavailable,
		Degraded:         sum.Degraded,
		Renames:          sum.Renames,
		EngineMetrics:    em,
		ProvenanceWriter: wm,
		Replayed:         result.Replayed,
	}

	// Persist per-record updates referencing (not modifying) the originals,
	// scoped to the run's tenant. A tenant run scans only the tenant's shard
	// (same fault-isolation contract as TenantDistinctNames).
	var updates []*curation.NameUpdate
	err := s.Records.ScanSpecies(tenantPrefix(opts.Tenant), func(id, species string) bool {
		outcome.RecordsProcessed++
		updated, bad := sum.Renames[species]
		if !bad {
			return true
		}
		status := "synonym"
		name := updated
		if updated == "Nomen inquirendum" {
			status = "provisionally accepted"
			name = ""
		}
		updates = append(updates, &curation.NameUpdate{
			RecordID:     id,
			OriginalName: species,
			UpdatedName:  name,
			Status:       status,
			Reference:    sum.References[species],
			DetectedAt:   start,
			Review:       curation.ReviewPending,
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	if !opts.SkipLedger && len(updates) > 0 {
		if err := s.Ledger.AddUpdates(updates); err != nil {
			return nil, err
		}
	}
	outcome.UpdatesCreated = len(updates)

	// §IV.C quality assessment.
	assessment, err := s.assessDetection(result.RunID, sum, opts)
	if err != nil {
		return nil, err
	}
	outcome.Assessment = assessment
	outcome.Elapsed = time.Since(start)
	return outcome, nil
}

// assessDetection runs the §IV.C quality computation for a finished run:
// species-name accuracy from the detection counts, reputation and
// availability from the provenance annotations, and — when supplied — the
// measured availability observed at the authority client.
func (s *System) assessDetection(runID string, sum detectionSummary, opts RunOptions) (*quality.Assessment, error) {
	annotations, err := s.Provenance.QualityOfProcess(runID, "Catalog_of_life")
	if err != nil {
		return nil, err
	}
	manager := quality.NewManager()
	if err := manager.Register(quality.RatioMetric(
		"species-name-accuracy", quality.DimAccuracy,
		"fraction of distinct names the authority still accepts",
		func(ctx *quality.Context) (int, int, error) {
			correct := sum.DistinctNames - sum.Outdated - sum.Unknown - sum.Unavailable
			checked := sum.DistinctNames - sum.Unavailable
			return correct, checked, nil
		})); err != nil {
		return nil, err
	}
	if err := manager.Register(quality.AnnotationMetric("authority-reputation", quality.DimReputation)); err != nil {
		return nil, err
	}
	if err := manager.Register(quality.AnnotationMetric("asserted-availability", quality.DimAvailability)); err != nil {
		return nil, err
	}
	if sum.Degraded > 0 {
		// Degraded-mode visibility: answers served from a stale cache while
		// the authority was down mark the assessment's availability dimension
		// down. Registered only when degradation actually happened, so
		// healthy runs assess exactly as before.
		if err := manager.Register(quality.RatioMetric(
			"fresh-resolutions", quality.DimAvailability,
			"fraction of checked names answered by the live authority rather than a stale cache",
			func(ctx *quality.Context) (int, int, error) {
				checked := sum.DistinctNames - sum.Unavailable
				return checked - sum.Degraded, checked, nil
			})); err != nil {
			return nil, err
		}
	}
	ctxValues := map[string]any{}
	if opts.MeasuredAvailability >= 0 {
		ctxValues["authority.observed_availability"] = opts.MeasuredAvailability
		if err := manager.Register(quality.ObservedMetric(
			"measured-availability", quality.DimAvailability,
			"authority.observed_availability")); err != nil {
			return nil, err
		}
	}
	goal := quality.Goal{
		Name: "long-term-preservation",
		Weights: map[string]float64{
			quality.DimAccuracy:     2,
			quality.DimReputation:   1,
			quality.DimAvailability: 1,
		},
	}
	return manager.Assess(goal, &quality.Context{
		Subject:     "FNJV species-name metadata",
		Values:      ctxValues,
		Annotations: annotations,
	})
}
