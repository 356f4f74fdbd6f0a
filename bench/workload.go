package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// env is what one run of one workload needs from the command line.
type env struct {
	matchd   string // built cmd/matchd binary
	runDir   string // scratch for data dirs and child logs; removed after the run
	traceDir string // where trace-<workload>.json is left
	k        int    // matchd -k (serverK outside the smoke tests)
	sz       sizes
	seed     int64
	seconds  float64
	traced   bool
	logf     func(format string, args ...any)
}

// rounds is how many times a run boots, measures and tears down:
// -seconds / nominal, at least once. It is a pure function of the
// command line, so every run of a workload does identical work. The
// traced run of a workload whose per-layer numbers are counts and self
// times, not medians, does one round.
func (e *env) rounds(nominal float64, tracedOnce bool) int {
	n := int(e.seconds / nominal)
	if n < 1 || (e.traced && tracedOnce) {
		n = 1
	}
	return n
}

// outcome is the result of one run of one workload.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples are the sample counts behind the timing metrics.
	Samples map[string]int `json:"samples,omitempty"`
	// Rounds are the per-round readings the end-to-end metrics are
	// medians of.
	Rounds []roundStat `json:"rounds,omitempty"`
	// Violations lists every gate that did not hold.
	Violations []string `json:"violations,omitempty"`
}

func newOutcome(name string, traced bool) *outcome {
	o := &outcome{Workload: name, Traced: traced, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	if traced {
		for _, m := range perLayer {
			o.Metrics[m.Name] = 0
		}
	}
	return o
}

// roundStat is what one round of an untraced run measured.
type roundStat struct {
	SetupS  float64 `json:"setup_s"`
	OpsPerS float64 `json:"ops_per_s"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	N       int     `json:"n"`
}

// violate records a failed gate; the run then reports correct=false.
func (o *outcome) violate(format string, args ...any) {
	o.Correct = false
	if len(o.Violations) < 20 {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
}

// set stores a metric, refusing values the driver could not read.
func (o *outcome) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.violate("metric %s is %v", name, v)
		v = 0
	}
	o.Metrics[name] = v
}

// endToEndFrom fills the gated metrics from what the rounds gathered,
// one entry per round. Every metric is a median over the rounds of the
// run, so a disturbance that hits one round is outvoted: set-up,
// throughput, memory, and each round's own median latency. The
// per-round percentiles are kept for the report.
func (o *outcome) endToEndFrom(setupS, opsPerS, rssMB []float64, latMS [][]float64) {
	var p50s []float64
	n := 0
	for i, lat := range latMS {
		s := sortedCopy(lat)
		p50s = append(p50s, quantile(s, 0.50))
		n += len(s)
		o.Rounds = append(o.Rounds, roundStat{
			SetupS: setupS[i], OpsPerS: opsPerS[i],
			P50MS: quantile(s, 0.5), P90MS: quantile(s, 0.9), P95MS: quantile(s, 0.95), P99MS: p99OrHighest(s), N: len(s),
		})
	}
	o.set("setup_s", median(setupS))
	o.set("ops_per_s", median(opsPerS))
	o.set("p50_ms", median(p50s))
	o.set("rss_peak_mb", median(rssMB))
	o.Samples["rounds"] = len(setupS)
	o.Samples["latency"] = n
}

// sameInts reports whether a and b hold the same ints in the same order
// (nil and empty are the same).
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// supersetInts reports whether sorted a contains every element of
// sorted b.
func supersetInts(a, b []int) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
	}
	return true
}

// freshDir makes an empty directory under the run's scratch.
func (e *env) freshDir(name string) (string, error) {
	dir := filepath.Join(e.runDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// workloadFuncs binds the names of spec.go to their implementations.
var workloadFuncs = map[string]func(*env) (*outcome, error){
	"serve_match":   runServeMatch,
	"serve_batch":   runServeBatch,
	"serve_ingest":  runServeIngest,
	"serve_mixed":   runServeMixed,
	"paper_rck":     paperWorkload("paper_rck", rckStage),
	"paper_enforce": paperWorkload("paper_enforce", enforceStage),
	"paper_linkage": paperWorkload("paper_linkage", linkageStage),
}
