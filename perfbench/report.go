package main

import (
	"bufio"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them. An "op" is the workload's user-facing operation: the
// detect round trip on api-detect and authority-rtt, a lineage read (timed
// from its due time) on lineage-read. op_p50_ms is the median latency of
// each kind of op, averaged over the kinds, so the 1:1:1 read mix counts
// each read kind once instead of letting the overall median fall between
// them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"detect_p50_ms", "ms"},
	{"detect_runs_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"disk_bytes_per_run", "B"},
	{"rss_bytes_per_run", "B"},
}

// perLayerMetrics come from the traced run. A metric of work a workload
// does not do (graph reads on api-detect, upstream requests against the
// in-process checklist) reads 0.
var perLayerMetrics = []metricDef{
	{"web.detect_post_ms", "ms"},
	{"web.poll_get_ms", "ms"},
	{"web.graph_get_ms", "ms"},
	{"web.runs_page_ms", "ms"},
	{"web.records_ms", "ms"},
	{"web.non2xx", "count"},
	{"cluster.admit_wait_ms", "ms"},
	{"cluster.admit_wait_share", "frac"},
	{"cluster.exec_ms", "ms"},
	{"cluster.notice_ms", "ms"},
	{"cluster.ticks_per_run", "count"},
	{"cluster.completed_per_claim", "frac"},
	{"taxonomy.upstream_requests_per_run", "count"},
	{"taxonomy.names_per_request", "count"},
	{"taxonomy.resolve_busy_ms_per_run", "ms"},
	{"taxonomy.cache_hit_frac", "frac"},
	{"workflow.invocations_per_run", "count"},
	{"workflow.peak_inflight", "count"},
	{"workflow.queue_wait_ms", "ms"},
	{"workflow.exec_ms", "ms"},
	{"provenance.flushes_per_run", "count"},
	{"provenance.avg_batch", "count"},
	{"provenance.flush_ms_per_run", "ms"},
	{"provenance.blocked_emits", "count"},
	{"provenance.graph_read_ms", "ms"},
	{"provenance.runs_page_ms", "ms"},
	{"storage.view_ms", "ms"},
	{"storage.records_query_ms", "ms"},
	{"storage.fsync_ms_per_run", "ms"},
	{"storage.wal_bytes_per_run", "B"},
	{"storage.tenant_scan_ms", "ms"},
	{"shard.ops_per_read", "count"},
	{"curation.updates_per_run", "count"},
	{"core.self_ms", "ms"},
	{"telemetry.spans_per_run", "count"},
	{"telemetry.trace_overhead_frac", "frac"},
	{"bench.late_p99_ms", "ms"},
	{"bench.path_ops", "count"},
	{"path.bench_ms", "ms"},
	{"path.web_ms", "ms"},
	{"path.cluster_ms", "ms"},
	{"path.core_ms", "ms"},
	{"path.workflow_ms", "ms"},
	{"path.taxonomy_ms", "ms"},
	{"path.provenance_ms", "ms"},
	{"path.storage_ms", "ms"},
	{"path.accounted_frac", "frac"},
}

// quantile is the q-quantile of xs by linear interpolation (xs need not be
// sorted; it is not modified). 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir whose base name
// matches (every file when match is empty).
func dirBytes(dir, match string) int64 {
	var total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || (match != "" && d.Name() != match) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// rssMB reads a resident-set figure of the process from /proc/self/status
// (VmRSS for the current size, VmHWM for the peak), in MiB.
func rssMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// counters is a reading of the counters the program exposes, taken before
// and after the traced phase.
type counters struct {
	sched     map[string]float64
	resilient map[string]float64
	shards    map[string]float64
	upstream  int64
	wal       int64
}

func (e *env) readCounters() counters {
	c := counters{wal: dirBytes(e.dir, "wal.log")}
	if e.sched != nil {
		c.sched = e.sched.Counters()
	}
	if e.resilient != nil {
		c.resilient = e.resilient.Counters()
	}
	if e.sys.Cluster != nil {
		c.shards = e.sys.Cluster.Counters()
	}
	if e.authority != nil {
		c.upstream, _ = e.authority.Stats()
	}
	return c
}

// shardOps sums the routed-operation gauges of every shard.
func shardOps(m map[string]float64) float64 {
	total := 0.0
	for k, v := range m {
		if strings.HasSuffix(k, ".ops") {
			total += v
		}
	}
	return total
}
