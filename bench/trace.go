package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes into
// a layer of the program. Spans stay in memory and are written at exit.
// Spans inside the program itself are not recorded here: the benchmark only
// times public calls from the outside.

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Op is the id of the root span of the operation the call belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // work the call did, such as tokens parsed
}

// tailSpan is a child whose duration is known (a server-reported work time)
// but whose position is not; it is placed at the end of its parent.
type tailSpan struct {
	parent int64
	name   string
	dur    time.Duration
}

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	tails []tailSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span. The zero value, which a nil tracer hands out,
// records nothing, so untraced runs pay one nil check per call site.
type spanRef struct {
	t                *tracer
	id, parent, opID int64
	name             string
	start            time.Time
}

// op opens the root span of one operation. Root spans whose name starts
// with "op." are the workload's measured operations; others (setup and
// check work) contribute layer timings but not operation shares.
func (t *tracer) op(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.ids.Add(1)
	return spanRef{t: t, id: id, opID: id, name: name, start: time.Now()}
}

// under opens a span whose parent was opened elsewhere, such as in the
// client goroutine on the other side of an HTTP request.
func (t *tracer) under(parent, opID int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t: t, id: t.ids.Add(1), parent: parent, opID: opID, name: name, start: time.Now()}
}

func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.under(s.id, s.opID, name)
}

func (s spanRef) end() { s.endCount(0) }

// endCount closes the span, recording how much work the call did.
func (s spanRef) endCount(n int64) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: s.parent, Op: s.opID, Name: s.name,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)), Count: n})
	s.t.mu.Unlock()
}

// tail records a child of the span with id parent that ran for dur and
// ended when its parent ended.
func (t *tracer) tail(parent int64, name string, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tails = append(t.tails, tailSpan{parent, name, dur})
	t.mu.Unlock()
}

// resolved returns every span, with tail spans placed inside their parents.
func (t *tracer) resolved() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	byID := make(map[int64]span, len(out))
	for _, s := range out {
		byID[s.ID] = s
	}
	for _, ts := range t.tails {
		p, ok := byID[ts.parent]
		if !ok {
			continue
		}
		start := p.End - int64(ts.dur)
		if start < p.Start {
			start = p.Start
		}
		out = append(out, span{ID: t.ids.Add(1), Parent: p.ID, Op: p.Op, Name: ts.name, Start: start, End: p.End})
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.resolved())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	durMs     map[string][]float64 // span name → durations (ms), every span
	count     map[string]int64     // span name → summed Count
	selfMs    map[string]float64   // layer → self time (ms) inside measured operations
	opMs      float64              // total time of the measured operations
	coveredMs float64              // part of opMs covered by child spans
}

// layerOf maps a span name such as "builder.Rebuild" to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func (t *tracer) summary() traceSummary {
	spans := t.resolved()
	kids := make(map[int64][]span)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := traceSummary{durMs: make(map[string][]float64), count: make(map[string]int64), selfMs: make(map[string]float64)}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		out.durMs[s.Name] = append(out.durMs[s.Name], d)
		out.count[s.Name] += s.Count
		root, ok := byID[s.Op]
		if !ok || !strings.HasPrefix(root.Name, "op.") {
			continue
		}
		cov := float64(covered(s, kids[s.ID])) / 1e6
		if s.Parent == 0 {
			out.opMs += d
			out.coveredMs += cov
			continue
		}
		out.selfMs[layerOf(s.Name)] += d - cov
	}
	return out
}

// covered is how much of p's interval its children cover, overlapping
// children counted once.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ks := append([]span(nil), kids...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range ks {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// medianMs is the median duration of the spans with this name, or 0 when
// the workload made no such call.
func (s traceSummary) medianMs(name string) float64 {
	if xs := s.durMs[name]; len(xs) > 0 {
		return median(xs)
	}
	return 0
}

// rate is the summed Count of the spans with this name per second they
// ran, or 0 when there were none.
func (s traceSummary) rate(name string) float64 {
	if t := sum(s.durMs[name]); t > 0 {
		return float64(s.count[name]) / (t / 1e3)
	}
	return 0
}

// share is the fraction of measured operation time spent in the layer's
// own calls.
func (s traceSummary) share(layer string) float64 {
	if s.opMs == 0 {
		return 0
	}
	return s.selfMs[layer] / s.opMs
}
