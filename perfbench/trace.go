package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed layer call. Spans of one ECO, job or explore share a
// trace ID; Parent is the ID of the enclosing span (0: root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cost  time.Duration // time spent inside begin/end
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(now)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	t.cost += time.Since(now)
	t.mu.Unlock()
}

// overheadFrac is the share of the run's wall time spent recording spans.
func (t *tracer) overheadFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost.Seconds() / time.Since(t.t0).Seconds()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layers returns per-name totals and self times, largest self time first.
// A span's self time is its duration minus the part of it that its child
// spans cover (children may overlap, e.g. concurrent jobs under one phase).
func (t *tracer) layers() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Calls++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if s.End != 0 && b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanTimes returns the durations in ms of every closed span of the name
// whose trace ID starts with prefix.
func (t *tracer) spanTimes(name, prefix string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && strings.HasPrefix(s.Trace, prefix) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
