package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one traced call: its name, its interval in nanoseconds
// since the tracer started, and the index of its parent span (-1 for
// a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory. Spans nest: a span begun while
// another is open is its child.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("perfbench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// seconds sums the durations of every span with one of the names.
func (t *tracer) seconds(names ...string) float64 {
	var ns int64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				ns += s.End - s.Start
			}
		}
	}
	return float64(ns) / 1e9
}

// selfSeconds sums, per span name, each span's duration minus the
// parts covered by its children.
func selfSeconds(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans writes the spans and the per-name self times.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(struct {
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
	}{spans, selfSeconds(spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// subSeed derives an independent input seed from the benchmark seed
// and a label (splitmix64 over the label's bytes).
func subSeed(seed uint64, label string, i int) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	mix := func(v uint64) {
		x += v + 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	for _, b := range []byte(label) {
		mix(uint64(b))
	}
	mix(uint64(i))
	return x
}
