package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/provenance"
	"repro/internal/shard"
	"repro/internal/taxonomy"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// CrashError reports a detection run killed mid-flight (by the
// CrashAfterDeltas chaos knob, standing in for a process death). The run's
// provenance prefix and history stream are durable; ResumeDetection picks
// the run back up by its ID.
type CrashError struct {
	// RunID of the interrupted run — the key for ResumeDetection.
	RunID string
	// Deltas is how many provenance deltas were persisted before the kill.
	Deltas int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("core: run %s killed after %d provenance deltas", e.RunID, e.Deltas)
}

// ErrNotResumable is wrapped by ResumeDetection when the run cannot be
// resumed: unknown, already finished, or not a detection run.
var ErrNotResumable = errors.New("core: run not resumable")

// recoveryStats counts recovery activity process-wide (all systems in the
// process share them; the numbers feed obs/web metrics).
var recoveryStats struct {
	resumed   atomic.Int64
	abandoned atomic.Int64
	swept     atomic.Int64
}

// RecoveryCounters reports recovery activity for obs.FromRuntimeMetrics:
// runs resumed to completion, runs abandoned, and startup sweeps performed.
func RecoveryCounters() map[string]float64 {
	return map[string]float64{
		"recovery.resumed":   float64(recoveryStats.resumed.Load()),
		"recovery.abandoned": float64(recoveryStats.abandoned.Load()),
		"recovery.sweeps":    float64(recoveryStats.swept.Load()),
	}
}

// ResumeDetection picks up an interrupted detection run: it reloads the
// crash-consistent provenance prefix and the persisted history stream,
// replays the history prefix through the event engine (completed activities
// are never re-invoked; unfinished iteration elements are re-enqueued), and
// finalizes the run under its original ID. Resume IS replay — there is no
// separate recovery path. The final provenance graph is identical to what an
// uninterrupted run would have produced.
//
// The run must still be marked running (the unfinished marker) and must be a
// detection-workflow run; anything else fails with ErrNotResumable.
func (s *System) ResumeDetection(ctx context.Context, resolver taxonomy.Resolver, runID string, opts RunOptions) (*DetectionOutcome, error) {
	return s.resumeDetection(ctx, resolver, runID, opts, nil)
}

// resumeDetection is ResumeDetection with an optional pre-claimed
// orchestration (the admission path claims before dispatching here). An
// orchestrated resume claims the run BEFORE reading any of its state —
// claim-before-read — so the previous owner, if still alive, can no longer
// extend the prefix we are about to replay, and two peers racing on the same
// expired lease resolve at the fence CAS: the loser gets ErrLeaseHeld without
// having touched the run. When the claim is won but the run turns out not to
// need us (already finished, not resumable), the claim is released
// immediately instead of aging out.
func (s *System) resumeDetection(ctx context.Context, resolver taxonomy.Resolver, runID string, opts RunOptions, orch *orchestration) (*DetectionOutcome, error) {
	opts.defaults()
	if opts.Tenant == "" {
		// The run ID carries its tenant; the resumed run must recompute the
		// same tenant-scoped input the original run saw.
		opts.Tenant, _ = shard.Split(runID)
	}
	start := time.Now()

	// The resume session records the run's span tree under the original run
	// ID: the crashed process took its in-memory spans with it, so this
	// session's trace IS the run's persisted trace (appended after any spans
	// an earlier session already stored).
	tracer := telemetry.TracerFrom(ctx)
	if tracer == nil && !opts.Untraced {
		tracer = telemetry.NewTracer(0)
		ctx = telemetry.WithTracer(ctx, tracer)
	}
	mark := 0
	if tracer != nil {
		mark = tracer.Len()
	}
	ctx, rootSpan := telemetry.StartSpan(ctx, "resume-detection", "core")
	rootSpan.SetAttr("run_id", runID)

	// Claim first. A live lease held by someone else fails with ErrLeaseHeld
	// (FailoverDetection waits the expiry out; the scheduler backs off).
	var err error
	if orch == nil && opts.Orchestrator != "" {
		orch, err = s.claimRun(runID, opts)
		if err != nil {
			if errors.Is(err, cluster.ErrLeaseHeld) || errors.Is(err, cluster.ErrLeaseLost) {
				return nil, err
			}
			// The lease was granted but the run's own fence is unreachable
			// (e.g. its owning shard is down): the run cannot be read, let
			// alone replayed — the same condition as an unreadable run row.
			return nil, fmt.Errorf("%w: %v", ErrNotResumable, err)
		}
	}
	// bail releases a claim that turned out to be unneeded (the run is
	// terminal or unreadable): holding it to expiry would only delay peers.
	bail := func(err error) error {
		if orch != nil {
			orch.finish()
		}
		return err
	}

	info, err := s.Provenance.Run(runID)
	if err != nil {
		return nil, bail(fmt.Errorf("%w: %v", ErrNotResumable, err))
	}
	if info.Status != provenance.RunRunning {
		return nil, bail(fmt.Errorf("%w: run %s is %s", ErrNotResumable, runID, info.Status))
	}
	if info.WorkflowID != DetectionWorkflowID {
		return nil, bail(fmt.Errorf("%w: run %s executed workflow %q", ErrNotResumable, runID, info.WorkflowID))
	}

	// Rebuild the same instrumented definition the original run executed.
	// The workflow was already published; resuming must not mint a version.
	def, err := AnnotatedDetectionWorkflow(opts.Reputation, opts.Availability, opts.Author, start)
	if err != nil {
		return nil, bail(err)
	}
	version, err := s.Workflows.LatestVersion(DetectionWorkflowID)
	if err != nil {
		version = 0 // prefix predates publication; resume anyway
	}

	// The workflow input is recomputed, not recovered: DistinctNames is a
	// deterministic sorted scan of the collection, and the collection is not
	// mutated by a detection run.
	names, err := s.TenantDistinctNames(opts.Tenant)
	if err != nil {
		return nil, bail(err)
	}
	items := make([]workflow.Data, len(names))
	for i, n := range names {
		items[i] = workflow.Scalar(n)
	}

	runCtx := ctx
	if orch != nil {
		defer orch.halt()
		runCtx = orch.watch(runCtx)
	}

	history, err := s.Provenance.History(runID)
	if err != nil {
		return nil, err
	}
	prefix, err := s.Provenance.Graph(runID)
	if err != nil {
		return nil, err
	}

	reg, err := s.Probe.Instrument(def, detectionRegistry(resolver, names))
	if err != nil {
		return nil, err
	}
	collector := provenance.NewResumeCollector(opts.Agent, prefix, info)
	wopts := provenance.BatchWriterOptions{Trace: ctx}
	if orch != nil {
		wopts.FenceName = provenance.RunFenceName(runID)
		wopts.FenceToken = orch.token()
	}
	writer, err := s.Provenance.ResumeRunWriter(runID, wopts)
	if err != nil {
		return nil, err
	}
	collector.AddSink(writer)
	engine := s.detectionEngine(reg, opts)
	if orch != nil {
		engine.NewQueue = orch.newQueue
	}

	result, runErr := engine.Resume(runCtx, def, map[string]workflow.Data{"names": workflow.List(items...)}, runID, history, provenance.NewHistoryCapture(collector))
	werr := writer.Close()
	if orch != nil {
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
	recoveryStats.resumed.Add(1)

	outcome, err := s.finishDetection(result, version, start, opts, engine.Metrics(), writer.Metrics())
	rootSpan.Finish()
	if err == nil && tracer != nil {
		if terr := s.saveTrace(runID, tracer.Since(mark)); terr != nil {
			return nil, fmt.Errorf("core: persisting trace: %w", terr)
		}
	}
	return outcome, err
}

// SweepReport summarizes one SweepUnfinishedRuns pass.
type SweepReport struct {
	// Found is how many unfinished markers the sweep saw.
	Found int
	// Resumed lists run IDs carried to completion.
	Resumed []string
	// Abandoned maps run IDs finalized as abandoned to the reason.
	Abandoned map[string]string
	// Skipped lists runs left alone because a live lease held by another
	// orchestrator covers them: they are in flight elsewhere, not ours to
	// resume or abandon.
	Skipped []string
}

// SweepUnfinishedRuns is the startup reconciliation pass: every run the
// previous process left marked running is either resumed to completion
// (detection runs, when a resolver is supplied) or finalized as abandoned
// with a reason — so failed runs never hold their unfinished marker forever.
// Call it before starting new runs; a live in-flight run would match the
// marker too.
func (s *System) SweepUnfinishedRuns(ctx context.Context, resolver taxonomy.Resolver, opts RunOptions) (*SweepReport, error) {
	unfinished, err := s.Provenance.UnfinishedRuns()
	if err != nil {
		return nil, err
	}
	recoveryStats.swept.Add(1)
	report := &SweepReport{Found: len(unfinished), Abandoned: map[string]string{}}
	abandon := func(runID, reason string) error {
		if err := s.Provenance.MarkAbandoned(runID, reason, time.Now()); err != nil {
			if info, ierr := s.Provenance.Run(runID); ierr == nil && info.Status != provenance.RunRunning {
				// A failed resume already finalized the run (e.g. as failed);
				// the unfinished marker is gone either way.
				report.Abandoned[runID] = reason
				return nil
			}
			return err
		}
		recoveryStats.abandoned.Add(1)
		report.Abandoned[runID] = reason
		return nil
	}
	for _, info := range unfinished {
		if s.Leases != nil {
			if l, ok := s.Leases.Get(info.RunID); ok && l.Live(time.Now()) && l.Holder != opts.Orchestrator {
				// A live foreign lease means another orchestrator owns this
				// run right now; sweeping it would just bounce off the fence.
				report.Skipped = append(report.Skipped, info.RunID)
				continue
			}
		}
		switch {
		case info.WorkflowID != DetectionWorkflowID:
			if err := abandon(info.RunID, fmt.Sprintf("no resume path for workflow %q", info.WorkflowID)); err != nil {
				return report, err
			}
		case resolver == nil:
			if err := abandon(info.RunID, "no resolver available at sweep"); err != nil {
				return report, err
			}
		default:
			if _, rerr := s.ResumeDetection(ctx, resolver, info.RunID, opts); rerr != nil {
				if errors.Is(rerr, cluster.ErrLeaseHeld) || errors.Is(rerr, cluster.ErrLeaseLost) {
					// Lost the claim race: between our liveness pre-check and
					// the resume's claim, a scheduler (or a second sweeping
					// process) won the lease and is executing the run right
					// now. Its run, not ours — abandoning it here would
					// finalize a run that is actively completing elsewhere.
					report.Skipped = append(report.Skipped, info.RunID)
					continue
				}
				if err := abandon(info.RunID, fmt.Sprintf("resume failed: %v", rerr)); err != nil {
					return report, err
				}
				continue
			}
			report.Resumed = append(report.Resumed, info.RunID)
		}
	}
	return report, nil
}
