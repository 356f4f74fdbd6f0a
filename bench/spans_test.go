package main

import (
	"math"
	"testing"

	"mdmatch/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Parent [0,10]; two parallel workers [1,5] and [3,8] cover [1,8].
	s := trace.SpanData{Name: "p", StartOffsetSeconds: 0, DurationSeconds: 10, Children: []trace.SpanData{
		{Name: "a", StartOffsetSeconds: 1, DurationSeconds: 4},
		{Name: "b", StartOffsetSeconds: 3, DurationSeconds: 5},
	}}
	if got := selfTime(s); !near(got, 3) {
		t.Errorf("self = %v, want 10 - 7 = 3", got)
	}
	// Disjoint children add up; order in the slice does not matter.
	s.Children = []trace.SpanData{
		{Name: "b", StartOffsetSeconds: 6, DurationSeconds: 2},
		{Name: "a", StartOffsetSeconds: 1, DurationSeconds: 2},
	}
	if got := selfTime(s); !near(got, 6) {
		t.Errorf("self = %v, want 10 - 4 = 6", got)
	}
}

func TestSelfTimeUnfinishedAndOutlivingChildren(t *testing.T) {
	// An unfinished child is frozen with the duration it had reached,
	// which may run past the parent's end: it is clipped to the parent.
	s := trace.SpanData{Name: "p", StartOffsetSeconds: 2, DurationSeconds: 4, Children: []trace.SpanData{
		{Name: "late", StartOffsetSeconds: 5, DurationSeconds: 100, Unfinished: true},
		{Name: "early", StartOffsetSeconds: 0, DurationSeconds: 3}, // starts before the parent
	}}
	// Covered: [2,3] and [5,6] of the parent's [2,6].
	if got := selfTime(s); !near(got, 2) {
		t.Errorf("self = %v, want 4 - 2 = 2", got)
	}
	// Children covering everything never drive self time negative.
	s.Children = []trace.SpanData{{Name: "all", StartOffsetSeconds: 0, DurationSeconds: 50}}
	if got := selfTime(s); got != 0 {
		t.Errorf("self = %v, want 0", got)
	}
}

func TestLayerBudgetAttribution(t *testing.T) {
	// root [0,10] ⊃ engine.insert [1,9] ⊃ stream.insert [2,8] ⊃ wal.append [2,4] ⊃ wal.fsync [3,4]
	tr := &trace.Trace{Root: trace.SpanData{Name: "bench.insert", DurationSeconds: 10, Children: []trace.SpanData{
		{Name: "engine.insert", StartOffsetSeconds: 1, DurationSeconds: 8, Children: []trace.SpanData{
			{Name: "stream.insert", StartOffsetSeconds: 2, DurationSeconds: 6, Children: []trace.SpanData{
				{Name: "wal.append", StartOffsetSeconds: 2, DurationSeconds: 2, Children: []trace.SpanData{
					{Name: "wal.fsync", StartOffsetSeconds: 3, DurationSeconds: 1},
				}},
			}},
		}},
	}}}
	other := &trace.Trace{Root: trace.SpanData{Name: "bench.snapshot", DurationSeconds: 99}}
	b := newLayerBudget()
	b.add([]*trace.Trace{tr, other}, "bench.insert")
	want := map[string]float64{"engine.insert": 2, "stream.insert": 4, "wal.append": 1, "wal.fsync": 1}
	for name, w := range want {
		if got := b.self[name]; len(got) != 1 || !near(got[0], w) {
			t.Errorf("self[%s] = %v, want [%v]", name, got, w)
		}
	}
	if len(b.total) != 1 {
		t.Fatalf("folded %d roots, want 1 (the snapshot root is another budget)", len(b.total))
	}
	// The root's own 2 s (before and after engine.insert) are unexplained.
	if got := b.attributedPct(); !near(got, 80) {
		t.Errorf("attributed = %v%%, want 80", got)
	}
}
