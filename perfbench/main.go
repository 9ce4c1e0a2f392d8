// Command perfbench is the repository's end-to-end benchmark. It sets up a
// preservation system the way cmd/fnjvweb wires it, drives one workload
// against it for a fixed time, checks every result against the generator's
// ground truth, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer split) as the last line of standard output:
//
//	perfbench --workload api-detect --seed 1 --seconds 20 --trace 0
//
// Workloads: api-detect (async POST /api/v1/detect through the scheduler),
// authority-rtt (RunDetection against an HTTP authority with 2 ms latency)
// and lineage-read (open-loop lineage reads beside a closed-loop writer on
// four shards). See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setups is how many times a run sets the system up; setup_s is their
// median, and the last one is measured.
const setups = 3

func main() {
	workload := flag.String("workload", "", "api-detect, authority-rtt or lineage-read")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for data and the traced run's span file")
	flag.Parse()

	spec, err := lookupWorkload(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.lines {
		fmt.Println(line)
	}
	blob, err := json.Marshal(res.json)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.json.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	lines []string
	json  resultJSON
}

// run sets the workload up, measures it and reports.
func run(spec workloadSpec, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(out, "data-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var setupTimes []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		// Each setup starts from a collected heap, not paying for the
		// garbage of the one before it.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		e, err = setup(spec, seed, filepath.Join(base, fmt.Sprintf("setup-%d", i)), traced)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.close()
	if err := e.loadGraphRefs(); err != nil {
		return nil, err
	}
	setupS := quantile(setupTimes, 0.5)

	res := &result{}
	res.lines = append(res.lines, fmt.Sprintf("workload %s, seed %d, %v measured, setups %v s",
		spec.name, seed, d, formatFloats(setupTimes)))
	if !traced {
		// Resident set is read after a collection that returns free pages
		// to the OS, so it counts what the system holds, not garbage.
		debug.FreeOSMemory()
		rssBefore, diskBefore := rssMB("VmRSS"), dirBytes(e.dir, "")
		p := e.measure(d, false)
		disk := float64(dirBytes(e.dir, "") - diskBefore)
		peak := rssMB("VmHWM")
		debug.FreeOSMemory()
		e.endToEnd(res, p, setupS, disk, (rssMB("VmRSS")-rssBefore)*(1<<20), peak)
		return res, nil
	}

	// Traced run: an untraced half as the overhead baseline, then a traced
	// half whose spans and counters give the per-layer split.
	un := e.measure(d/2, false)
	before := e.readCounters()
	tr := e.measure(d/2, true)
	after := e.readCounters()
	rep, err := e.layers(un, tr, before, after)
	if err != nil {
		return nil, err
	}
	res.json = resultJSON{
		Correct:   un.failed == 0 && tr.failed == 0,
		Attempted: un.attempted + tr.attempted,
		Failed:    un.failed + tr.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayerMetrics {
		res.json.Metrics[m.name] = metric{Value: rep.values[m.name], Unit: m.unit}
	}
	res.lines = append(res.lines, rep.lines...)
	res.lines = append(res.lines, failureLines(un)...)
	res.lines = append(res.lines, failureLines(tr)...)
	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", spec.name, seed))
	if err := writeTrace(path, e, rep); err != nil {
		return nil, err
	}
	res.lines = append(res.lines, "spans and per-operation paths written to "+path)
	return res, nil
}

// endToEnd fills the result with the end-to-end metrics of an untraced
// phase, and prints them with the figures that have no bound of their own.
func (e *env) endToEnd(res *result, p *phase, setupS, diskGrowth, rssGrowth, peakRSS float64) {
	detects := latenciesMS(p.ok("detect"))
	reads := p.ok("runs", "graph", "records")
	kinds := [][]float64{detects}
	if e.spec.name == "lineage-read" {
		kinds = [][]float64{latenciesMS(p.ok("runs")), latenciesMS(p.ok("graph")), latenciesMS(p.ok("records"))}
	}
	var kindP50s []float64
	for _, k := range kinds {
		kindP50s = append(kindP50s, quantile(k, 0.5))
	}
	runs := float64(len(detects))
	values := map[string]float64{
		"setup_s":            setupS,
		"detect_p50_ms":      quantile(detects, 0.5),
		"detect_runs_per_s":  runs / p.wall.Seconds(),
		"op_p50_ms":          mean(kindP50s),
		"disk_bytes_per_run": ratio(diskGrowth, runs),
		"rss_bytes_per_run":  ratio(rssGrowth, runs),
	}
	res.json = resultJSON{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		res.json.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		res.lines = append(res.lines, fmt.Sprintf("%-20s %14.4f %-5s", m.name, values[m.name], m.unit))
	}
	// Figures without a bound of their own: tails, peak memory and CPU time
	// swing with the host's load more than a bound allows, and the failure
	// count is the result's "failed" field.
	res.lines = append(res.lines,
		fmt.Sprintf("%-20s %14.4f %-5s (%d runs over %.2f s)", "detect_p90_ms", quantile(detects, 0.9), "ms", len(detects), p.wall.Seconds()),
		fmt.Sprintf("%-20s %14.4f %-5s", "peak_rss_mb", peakRSS, "MB"),
		fmt.Sprintf("%-20s %14.4f %-5s (process CPU per completed operation)", "cpu_ms_per_op",
			ratio(ms(p.cpu), float64(len(detects)+len(reads))), "ms"),
		fmt.Sprintf("%-20s %14.4f %-5s (%d failed / %d attempted)", "error_frac", ratio(float64(p.failed), float64(p.attempted)), "frac", p.failed, p.attempted))
	if readAttempts := p.attempted - len(p.samplesOf("detect")); readAttempts > 0 {
		inSLO := 0
		for _, s := range reads {
			if s.latency() <= readSLO {
				inSLO++
			}
		}
		all := latenciesMS(reads)
		res.lines = append(res.lines,
			fmt.Sprintf("%-20s %14.4f %-5s (%d reads)", "read_p50_ms", quantile(all, 0.5), "ms", len(all)),
			fmt.Sprintf("%-20s %14.4f %-5s", "read_p99_ms", quantile(all, 0.99), "ms"),
			fmt.Sprintf("%-20s %14.4f %-5s (%d of %d reads within %v of due)", "read_slo_frac",
				ratio(float64(inSLO), float64(readAttempts)), "frac", inSLO, readAttempts, readSLO))
		for i, k := range []string{"runs", "graph", "records"} {
			res.lines = append(res.lines, fmt.Sprintf("%-20s %14.4f %-5s", "read_"+k+"_p50_ms", kindP50s[i], "ms"))
		}
	}
	res.lines = append(res.lines, failureLines(p)...)
}

func failureLines(p *phase) []string {
	var out []string
	for _, f := range p.failures {
		out = append(out, "FAILED "+f)
	}
	return out
}

func formatFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// writeTrace writes the traced run's own spans (those tied to an
// operation), the per-operation blocking paths and the per-layer values.
func writeTrace(path string, e *env, rep *layerReport) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var spans []span
	for _, sp := range e.log.all() {
		if sp.Op != 0 {
			spans = append(spans, sp)
		}
	}
	blob, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Paths    []opPath           `json:"paths"`
		Spans    []span             `json:"spans"`
	}{e.spec.name, e.seed, rep.values, rep.paths, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
