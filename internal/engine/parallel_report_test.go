package engine

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// parallelCurvePoint is one workers entry of a scaling curve recorded
// by `make bench`: the measured value at that worker count and
// its speedup over the workers=1 run of the same measure.
type parallelCurvePoint struct {
	Workers   int     `json:"workers"`
	Seconds   float64 `json:"seconds"`
	Value     float64 `json:"value"`
	SpeedupV1 float64 `json:"speedup_vs_1"`
}

// parallelSection is the "parallel" object merged into an existing
// BENCH_engine.json by TestWriteParallelBenchReport. GoMaxProcs records
// how many cores the curve actually had — on a 1-core box every
// speedup_vs_1 hovers near 1.0 by construction (goroutines time-slice
// one CPU), which is the non-regression signal, not the scaling signal.
type parallelSection struct {
	GeneratedAt string               `json:"generated_at"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	Measure     string               `json:"measure"`
	Unit        string               `json:"unit"`
	Curve       []parallelCurvePoint `json:"curve"`
}

// mergeParallelSection read-modify-writes path, setting only the
// "parallel" key so the report's other sections (written by the main
// bench target, possibly on another run) survive. A missing or
// unreadable file starts fresh.
func mergeParallelSection(t *testing.T, path string, section parallelSection) {
	t.Helper()
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("existing %s is not JSON: %v", path, err)
		}
	}
	doc["parallel"] = section
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("merged parallel section into %s", path)
}

// parallelWorkerCounts is the MatchBatch scaling curve: 1, 2, 4 and
// GOMAXPROCS when that adds a new point.
func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestWriteParallelBenchReport measures MatchBatch throughput across
// the worker curve and merges the result into BENCH_engine.json's
// "parallel" section (wired up in `make bench`). Skipped
// unless BENCH_PARALLEL_ENGINE_OUT names the report file.
func TestWriteParallelBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_PARALLEL_ENGINE_OUT")
	if out == "" {
		t.Skip("set BENCH_PARALLEL_ENGINE_OUT=<path> to record the scaling curve")
	}
	k := 4000
	if v := os.Getenv("BENCH_ENGINE_K"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad BENCH_ENGINE_K %q: %v", v, err)
		}
		k = n
	}
	s := benchSetup(t, k)
	batch := batchOf(s)

	section := parallelSection{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Measure:     "engine.MatchBatch",
		Unit:        "queries_per_second",
	}
	var oneWorker float64
	for _, workers := range parallelWorkerCounts() {
		eng, err := New(s.plan, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(s.ds.Credit); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.MatchBatch(batch); err != nil { // warm-up
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := eng.MatchBatch(batch); err != nil {
			t.Fatal(err)
		}
		secs := time.Since(start).Seconds()
		p := parallelCurvePoint{
			Workers: workers, Seconds: secs,
			Value: float64(len(batch)) / secs,
		}
		if workers == 1 {
			oneWorker = secs
		}
		if oneWorker > 0 {
			p.SpeedupV1 = oneWorker / secs
		}
		section.Curve = append(section.Curve, p)
	}
	mergeParallelSection(t, out, section)
}
