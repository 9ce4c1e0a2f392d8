package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The layers the per-layer report splits time into, named after the
// repository's modules. "bench" is time the load generator itself owns: a
// read that was sent late, or an operation no layer's span covers.
const (
	layerBench      = "bench"
	layerWeb        = "web"
	layerCluster    = "cluster"
	layerCore       = "core"
	layerWorkflow   = "workflow"
	layerTaxonomy   = "taxonomy"
	layerProvenance = "provenance"
	layerStorage    = "storage"
)

var pathLayers = []string{layerBench, layerWeb, layerCluster, layerCore, layerWorkflow, layerTaxonomy, layerProvenance, layerStorage}

// span is one interval the benchmark records around a call it makes into
// the program. The program's own persisted spans are read back per run
// instead (analyseRun).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Op     int64     `json:"op,omitempty"` // the request or run the span serves; 0 for wrapper spans
	Layer  string    `json:"layer"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps the benchmark's spans in memory while recording is on.
type spanLog struct {
	on    atomic.Bool
	seq   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) recording() bool { return l != nil && l.on.Load() }

// begin returns a fresh operation ID, or 0 when not recording.
func (l *spanLog) begin() int64 {
	if !l.recording() {
		return 0
	}
	return l.seq.Add(1)
}

// add records a finished span; a span without an ID gets a fresh one. It
// returns the span's ID, or 0 when not recording.
func (l *spanLog) add(sp span) int64 {
	if !l.recording() {
		return 0
	}
	if sp.ID == 0 {
		sp.ID = l.seq.Add(1)
	}
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
	return sp.ID
}

// within returns the wrapper spans of the given layer that overlap
// [from, to]. Wrappers cannot know which operation a call serves, so their
// spans carry no op and are matched to one by time.
func (l *spanLog) within(layer string, from, to time.Time) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Layer == layer && s.Op == 0 && s.End.After(from) && s.Start.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// ranked is a span with the priority it gets on the blocking path: where
// spans overlap, the instant belongs to the highest-ranked one.
type ranked struct {
	layer      string
	rank       int
	start, end time.Time
}

// Blocking-path ranks. An operation's own phases rank lowest; the program's
// persisted run spans rank above them, innermost layer highest: a worker
// waiting on the authority is taxonomy time, not engine time, and the final
// flush the run waits on is provenance time, not core time.
const (
	rankPhase = 1 + iota
	rankCore
	rankProvenance
	rankStorage
	rankWorkflow
	rankTaxonomy
	rankWeb
)

// partition splits [from, to] among layers: each instant goes to the
// highest-ranked span covering it (the latest-started on a tie), or to
// base when none does. The parts sum to to-from exactly.
func partition(from, to time.Time, base string, spans []ranked) map[string]time.Duration {
	out := map[string]time.Duration{}
	type edge struct {
		at    time.Time
		open  bool
		index int
	}
	var edges []edge
	for i, s := range spans {
		st, en := s.start, s.end
		if st.Before(from) {
			st = from
		}
		if en.After(to) {
			en = to
		}
		if !en.After(st) {
			continue
		}
		edges = append(edges, edge{st, true, i}, edge{en, false, i})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	active := map[int]bool{}
	cur := from
	settle := func(until time.Time) {
		if !until.After(cur) {
			return
		}
		best := -1
		for i := range active {
			if best < 0 || spans[i].rank > spans[best].rank ||
				(spans[i].rank == spans[best].rank && spans[i].start.After(spans[best].start)) {
				best = i
			}
		}
		layer := base
		if best >= 0 {
			layer = spans[best].layer
		}
		out[layer] += until.Sub(cur)
		cur = until
	}
	for _, e := range edges {
		settle(e.at)
		if e.open {
			active[e.index] = true
		} else {
			delete(active, e.index)
		}
	}
	settle(to)
	return out
}

// persistedLayer maps a span the program persisted onto a benchmark layer
// and blocking-path rank.
func persistedLayer(sp telemetry.Span) (string, int) {
	switch sp.Kind {
	case "core":
		return layerCore, rankCore
	case "engine":
		return layerWorkflow, rankWorkflow
	case "taxonomy":
		return layerTaxonomy, rankTaxonomy
	case "provenance-writer":
		if sp.Name == "fsync" {
			return layerStorage, rankStorage
		}
		return layerProvenance, rankProvenance
	case "api":
		return layerWeb, rankWeb
	}
	return layerCore, rankCore
}

// runSpans is the analysis of one run's persisted span tree.
type runSpans struct {
	count    int
	root     telemetry.Span // the run-detection span
	ranked   []ranked
	coreSelf time.Duration // root duration minus what its children cover
	engine   time.Duration // summed self time of the engine spans
	fsync    time.Duration // summed duration of the WAL fsync spans
}

func analyseRun(spans []telemetry.Span) runSpans {
	rs := runSpans{count: len(spans)}
	children := map[string][]telemetry.Span{}
	for _, sp := range spans {
		children[sp.ParentID] = append(children[sp.ParentID], sp)
		if sp.Name == "run-detection" {
			rs.root = sp
		}
		layer, rank := persistedLayer(sp)
		rs.ranked = append(rs.ranked, ranked{layer: layer, rank: rank, start: sp.Start, end: sp.End})
		if sp.Kind == "provenance-writer" && sp.Name == "fsync" {
			rs.fsync += sp.Duration()
		}
	}
	for _, sp := range spans {
		self := selfTime(sp, children[sp.SpanID])
		switch {
		case sp.SpanID == rs.root.SpanID:
			rs.coreSelf = self
		case sp.Kind == "engine":
			rs.engine += self
		}
	}
	return rs
}

// selfTime is the span's duration minus the part of it its children cover.
func selfTime(sp telemetry.Span, kids []telemetry.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(sp.Start) {
			a = sp.Start
		}
		if b.After(sp.End) {
			b = sp.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return sp.Duration() - covered
}
