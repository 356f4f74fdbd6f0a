package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"

	"mdmatch/internal/trace"
)

// The traced run wraps every replayed op in a root span from the
// harness's own tracer (every trace kept: SampleN 1, capacity >= ops).
// The layers below already open child spans — engine.insert ⊃
// stream.insert ⊃ wal.append ⊃ wal.fsync, engine.match,
// engine.match_batch, engine.snapshot ⊃ store.snapshot — so nothing is
// added to the program: the harness only supplies the root.

// newTracer keeps every completed trace, up to capacity.
func newTracer(capacity int) *trace.Tracer {
	return trace.New(trace.Options{SampleN: 1, Capacity: capacity + 64})
}

// traced runs fn under a fresh root span.
func traced(tr *trace.Tracer, name string, fn func(ctx context.Context) error) error {
	ctx, root := tr.StartRoot(context.Background(), name, "", "", "")
	err := fn(ctx)
	root.End()
	return err
}

// selfTime is a span's duration minus the part of that interval its
// children cover. Children may overlap each other (parallel workers) —
// their union is taken — and may be unfinished or outlive the parent —
// they are clipped to the parent's interval.
func selfTime(s trace.SpanData) float64 {
	start, end := s.StartOffsetSeconds, s.StartOffsetSeconds+s.DurationSeconds
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := c.StartOffsetSeconds, c.StartOffsetSeconds+c.DurationSeconds
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, curA, curB := 0.0, 0.0, 0.0
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	self := s.DurationSeconds - covered
	if self < 0 {
		self = 0
	}
	return self
}

// layerBudget folds completed traces into per-span-name self times.
type layerBudget struct {
	// self[name] holds one entry per trace that contained the span (the
	// sum over the span's occurrences in that trace), in trace order.
	self map[string][]float64
	// total holds each root's duration; rootSelf its own self time — the
	// harness's wrapper, the part no named layer explains.
	total    []float64
	rootSelf []float64
}

func newLayerBudget() *layerBudget { return &layerBudget{self: map[string][]float64{}} }

// add folds the traces whose root is named rootName.
func (b *layerBudget) add(traces []*trace.Trace, rootName string) {
	for _, t := range traces {
		if t.Root.Name != rootName {
			continue
		}
		per := map[string]float64{}
		var walk func(s trace.SpanData)
		walk = func(s trace.SpanData) {
			per[s.Name] += selfTime(s)
			for _, c := range s.Children {
				walk(c)
			}
		}
		for _, c := range t.Root.Children {
			walk(c)
		}
		for name, v := range per {
			b.self[name] = append(b.self[name], v)
		}
		b.total = append(b.total, t.Root.DurationSeconds)
		b.rootSelf = append(b.rootSelf, selfTime(t.Root))
	}
}

// attributedPct is the share of root time that named layers explain.
func (b *layerBudget) attributedPct() float64 {
	tot := sum(b.total)
	if tot == 0 {
		return 0
	}
	return 100 * (tot - sum(b.rootSelf)) / tot
}

// selfUS returns the per-trace self times of a span, in microseconds,
// sorted ascending.
func (b *layerBudget) selfUS(name string) []float64 {
	out := make([]float64, len(b.self[name]))
	for i, v := range b.self[name] {
		out[i] = v * 1e6
	}
	sort.Float64s(out)
	return out
}

// writeTraces dumps the kept span trees when the benchmark ends.
func writeTraces(path string, traces []*trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traces": traces}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
