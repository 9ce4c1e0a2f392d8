package main

import (
	"fmt"
	"sort"
	"time"
)

// opPath is one traced operation split along its blocking path.
type opPath struct {
	Op        int64              `json:"op"`
	Kind      string             `json:"kind"`
	RunID     string             `json:"run_id,omitempty"`
	LatencyMS float64            `json:"latency_ms"`
	LayersMS  map[string]float64 `json:"layers_ms"`
}

// layerReport is the traced run's per-layer result: the metric values, the
// per-operation paths behind them, and one human-readable line per figure
// with the counts its ratios rest on.
type layerReport struct {
	values map[string]float64
	paths  []opPath
	lines  []string
}

func (r *layerReport) set(name string, v float64, base string, args ...any) {
	r.values[name] = v
	line := fmt.Sprintf("%-36s %12.4f", name, v)
	if base != "" {
		line += "   (" + fmt.Sprintf(base, args...) + ")"
	}
	r.lines = append(r.lines, line)
}

// layers computes the per-layer metrics of a traced phase. un is the
// untraced phase run just before it on the same system, for the tracing
// overhead; before and after are counter readings around tr.
func (e *env) layers(un, tr *phase, before, after counters) (*layerReport, error) {
	r := &layerReport{values: map[string]float64{}}
	detects := tr.ok("detect")
	reads := tr.ok("runs", "graph", "records")
	runs := float64(len(detects))

	// Persisted span trees of the traced runs, read back through the
	// program's trace store.
	trees := map[string]runSpans{}
	for _, s := range detects {
		spans, err := e.sys.Traces.Spans(s.runID)
		if err != nil {
			return nil, fmt.Errorf("reading trace of %s: %w", s.runID, err)
		}
		trees[s.runID] = analyseRun(spans)
	}

	// web
	var post, polls []float64
	for _, s := range detects {
		if !s.accepted.IsZero() {
			post = append(post, ms(s.accepted.Sub(s.start)))
		}
	}
	for _, sp := range e.log.all() {
		if sp.Layer == layerWeb && sp.Name == "GET /api/v1/runs/{id}" {
			polls = append(polls, ms(sp.dur()))
		}
	}
	r.set("web.detect_post_ms", mean(post), "mean of %d POSTs", len(post))
	r.set("web.poll_get_ms", mean(polls), "mean of %d polls", len(polls))
	for _, k := range []struct{ kind, name string }{
		{"graph", "web.graph_get_ms"}, {"runs", "web.runs_page_ms"}, {"records", "web.records_ms"},
	} {
		var xs []float64
		for _, s := range tr.ok(k.kind) {
			xs = append(xs, ms(s.end.Sub(s.sent)))
		}
		r.set(k.name, mean(xs), "mean of %d GETs, send to last byte", len(xs))
	}
	r.set("web.non2xx", float64(tr.non2xx), "of %d operations", tr.attempted)

	// cluster
	var admit, exec, notice []float64
	for _, s := range detects {
		if s.started.IsZero() {
			continue
		}
		admit = append(admit, ms(s.started.Sub(s.accepted)))
		exec = append(exec, ms(s.finished.Sub(s.started)))
		notice = append(notice, ms(s.end.Sub(s.finished)))
	}
	detectP50 := quantile(latenciesMS(detects), 0.5)
	r.set("cluster.admit_wait_ms", mean(admit), "mean of %d runs, 202 to started_at", len(admit))
	r.set("cluster.admit_wait_share", ratio(mean(admit), detectP50), "over detect p50 %.2f ms", detectP50)
	r.set("cluster.exec_ms", mean(exec), "mean of %d runs, started_at to finished_at", len(exec))
	r.set("cluster.notice_ms", mean(notice), "mean of %d runs, finished_at to seen", len(notice))
	ticks := after.sched["scheduler.ticks"] - before.sched["scheduler.ticks"]
	claims := after.sched["scheduler.claims"] - before.sched["scheduler.claims"]
	completed := after.sched["scheduler.completed"] - before.sched["scheduler.completed"]
	r.set("cluster.ticks_per_run", ratio(ticks, runs), "%.0f ticks / %.0f runs", ticks, runs)
	r.set("cluster.completed_per_claim", ratio(completed, claims), "%.0f completed / %.0f claims", completed, claims)

	// taxonomy
	upstream := float64(after.upstream - before.upstream)
	hits := after.resilient["cache.hits"] - before.resilient["cache.hits"]
	misses := after.resilient["cache.misses"] - before.resilient["cache.misses"]
	var busy time.Duration
	for _, sp := range e.log.all() {
		if sp.Layer == layerTaxonomy {
			busy += sp.dur()
		}
	}
	r.set("taxonomy.upstream_requests_per_run", ratio(upstream, runs), "%.0f requests / %.0f runs", upstream, runs)
	r.set("taxonomy.names_per_request", ratio(misses, upstream), "%.0f cache misses / %.0f requests", misses, upstream)
	r.set("taxonomy.resolve_busy_ms_per_run", ratio(ms(busy), runs), "%.1f ms in the resolver / %.0f runs", ms(busy), runs)
	r.set("taxonomy.cache_hit_frac", ratio(hits, hits+misses), "%.0f hits / %.0f lookups", hits, hits+misses)

	// workflow, provenance, curation: the outcomes' own counters
	var inv, peak, qwait, flushes, batch, flushMS, blocked, updates []float64
	for _, s := range detects {
		o := s.outcome
		inv = append(inv, float64(o.EngineMetrics.Invocations))
		peak = append(peak, float64(o.EngineMetrics.PeakInFlight))
		if qw := o.EngineMetrics.QueueWait; qw.Count > 0 {
			qwait = append(qwait, float64(qw.SumUS)/float64(qw.Count)/1000)
		}
		w := o.ProvenanceWriter
		flushes = append(flushes, float64(w.Batches))
		batch = append(batch, w.AvgBatch())
		flushMS = append(flushMS, ms(w.FlushTotal))
		blocked = append(blocked, float64(w.BlockedEmits))
		updates = append(updates, float64(o.UpdatesCreated))
	}
	var engine, coreSelf, fsync, spanCount []float64
	for _, t := range trees {
		engine = append(engine, ms(t.engine))
		coreSelf = append(coreSelf, ms(t.coreSelf))
		fsync = append(fsync, ms(t.fsync))
		spanCount = append(spanCount, float64(t.count))
	}
	r.set("workflow.invocations_per_run", mean(inv), "mean of %d runs", len(inv))
	r.set("workflow.peak_inflight", mean(peak), "mean of %d runs", len(peak))
	r.set("workflow.queue_wait_ms", mean(qwait), "mean per task, %d runs", len(qwait))
	r.set("workflow.exec_ms", mean(engine), "engine span self time, mean of %d runs", len(engine))
	r.set("provenance.flushes_per_run", mean(flushes), "mean of %d runs", len(flushes))
	r.set("provenance.avg_batch", mean(batch), "deltas per flush, mean of %d runs", len(batch))
	r.set("provenance.flush_ms_per_run", mean(flushMS), "mean of %d runs", len(flushMS))
	r.set("provenance.blocked_emits", mean(blocked), "per run, mean of %d runs", len(blocked))
	graphReads, pageReads, views := wrapperDurations(e.log, "graph"), wrapperDurations(e.log, "runs-page"), wrapperDurations(e.log, "view")
	r.set("provenance.graph_read_ms", mean(graphReads), "mean of %d snapshot Graph calls", len(graphReads))
	r.set("provenance.runs_page_ms", mean(pageReads), "mean of %d snapshot RunsPage calls", len(pageReads))

	// storage, shard
	scans := make([]float64, len(tr.tenantScans))
	for i, d := range tr.tenantScans {
		scans[i] = ms(d)
	}
	wal := float64(after.wal - before.wal)
	shardOpsDelta := shardOps(after.shards) - shardOps(before.shards)
	queries := wrapperDurations(e.log, "records-query")
	r.set("storage.view_ms", mean(views), "mean of %d snapshot views", len(views))
	r.set("storage.records_query_ms", mean(queries), "mean of %d record queries", len(queries))
	r.set("storage.fsync_ms_per_run", mean(fsync), "mean of %d runs", len(fsync))
	r.set("storage.wal_bytes_per_run", ratio(wal, runs), "%.0f WAL bytes / %.0f runs", wal, runs)
	r.set("storage.tenant_scan_ms", mean(scans), "mean of %d direct calls", len(scans))
	r.set("shard.ops_per_read", ratio(shardOpsDelta, float64(len(reads))),
		"%.0f routed ops (writer included) / %d reads", shardOpsDelta, len(reads))
	r.set("curation.updates_per_run", mean(updates), "mean of %d runs", len(updates))
	r.set("core.self_ms", mean(coreSelf), "run-detection minus children, mean of %d runs", len(coreSelf))
	r.set("telemetry.spans_per_run", mean(spanCount), "mean of %d runs", len(spanCount))
	unP50 := quantile(latenciesMS(un.ok("detect")), 0.5)
	r.set("telemetry.trace_overhead_frac", ratio(detectP50, unP50)-1,
		"traced detect p50 %.2f ms (%d runs) / untraced %.2f ms (%d runs)", detectP50, len(detects), unP50, len(un.ok("detect")))
	var late []float64
	for _, s := range reads {
		late = append(late, ms(s.sent.Sub(s.start)))
	}
	r.set("bench.late_p99_ms", quantile(late, 0.99), "of %d reads", len(late))

	// The blocking path of the workload's user-facing operation.
	primary := detects
	if e.spec.name == "lineage-read" {
		primary = reads
	}
	for _, s := range primary {
		r.paths = append(r.paths, e.opPath(s, trees[s.runID]))
	}
	r.pathMetrics(primary)
	return r, nil
}

// wrapperDurations returns the durations in ms of the benchmark's wrapper spans
// with the given name.
func wrapperDurations(l *spanLog, name string) []float64 {
	var out []float64
	for _, sp := range l.all() {
		if sp.Name == name {
			out = append(out, ms(sp.dur()))
		}
	}
	return out
}

// opPath splits one operation's latency among the layers on its blocking
// path.
func (e *env) opPath(s sample, tree runSpans) opPath {
	var rk []ranked
	switch {
	case s.kind != "detect":
		// A read: late start is the generator's, the GET is web time
		// except where it waited on the snapshot view or a provenance read.
		rk = append(rk, ranked{layerWeb, rankPhase, s.sent, s.end})
		for _, sp := range e.log.within(layerStorage, s.sent, s.end) {
			rk = append(rk, ranked{layerStorage, rankStorage, sp.Start, sp.End})
		}
		for _, sp := range e.log.within(layerProvenance, s.sent, s.end) {
			rk = append(rk, ranked{layerProvenance, rankProvenance, sp.Start, sp.End})
		}
	default:
		if !s.accepted.IsZero() {
			// Async detect: the POST and the final poll are web time, the
			// rest is the scheduler's until the run's own spans start.
			rk = append(rk,
				ranked{layerWeb, rankWeb, s.start, s.accepted},
				ranked{layerCluster, rankPhase, s.accepted, s.end},
				ranked{layerWeb, rankWeb, s.lastGet, s.end})
		}
		rk = append(rk, tree.ranked...)
		from, to := tree.root.Start, tree.root.End
		if from.IsZero() {
			from, to = s.start, s.end
		}
		for _, sp := range e.log.within(layerTaxonomy, from, to) {
			rk = append(rk, ranked{layerTaxonomy, rankTaxonomy, sp.Start, sp.End})
		}
	}
	parts := partition(s.start, s.end, layerBench, rk)
	p := opPath{Op: s.op, Kind: s.kind, RunID: s.runID, LatencyMS: ms(s.latency()), LayersMS: map[string]float64{}}
	for layer, d := range parts {
		p.LayersMS[layer] = ms(d)
	}
	return p
}

// pathMetrics averages the per-layer path over the middle half of the
// operations by latency — the ones around the median — and sets their sum
// beside the median.
func (r *layerReport) pathMetrics(primary []sample) {
	byLatency := append([]opPath(nil), r.paths...)
	sort.Slice(byLatency, func(i, j int) bool { return byLatency[i].LatencyMS < byLatency[j].LatencyMS })
	mid := byLatency[len(byLatency)/4 : len(byLatency)-len(byLatency)/4]
	p50 := quantile(latenciesMS(primary), 0.5)
	total := 0.0
	r.set("bench.path_ops", float64(len(mid)), "middle half of %d operations by latency", len(byLatency))
	for _, layer := range pathLayers {
		var xs []float64
		for _, p := range mid {
			xs = append(xs, p.LayersMS[layer])
		}
		m := mean(xs)
		total += m
		r.set("path."+layer+"_ms", m, "share of p50 %.1f%%", 100*ratio(m, p50))
	}
	r.set("path.accounted_frac", ratio(total, p50), "sum %.2f ms / p50 %.2f ms over %d operations", total, p50, len(primary))
}
