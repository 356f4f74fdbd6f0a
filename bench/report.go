package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// boxFacts are recorded with every result file: a number means nothing
// without the machine it was taken on.
type boxFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_filesystem"`
	Commit     string `json:"commit"`
	When       string `json:"when"`
}

func gatherBoxFacts(dataDir string) boxFacts {
	b := boxFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", DataDirFS: "unknown", Commit: "unknown",
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		b.Kernel = strings.TrimSpace(string(raw))
	}
	b.DataDirFS = filesystemOf(dataDir)
	// The driver's checkout is not a git repository; the commit is then
	// simply unknown.
	if outp, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		b.Commit = strings.TrimSpace(string(outp))
	}
	return b
}

// filesystemOf names the filesystem type of the mount holding path, from
// /proc/mounts (longest mount-point prefix wins).
func filesystemOf(path string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// resultSet is one full pass: every workload, untraced then traced.
type resultSet struct {
	Box      boxFacts   `json:"box"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Outcomes []*outcome `json:"outcomes"`
}

func (rs *resultSet) green() bool {
	for _, o := range rs.Outcomes {
		if !o.Correct {
			return false
		}
	}
	return true
}

// find returns the outcome of a workload's untraced or traced run.
func (rs *resultSet) find(workload string, traced bool) *outcome {
	for _, o := range rs.Outcomes {
		if o.Workload == workload && o.Traced == traced {
			return o
		}
	}
	return nil
}

// runSet runs every workload both ways, each run in a process of its
// own (this binary, re-executed the way the driver runs it): a run then
// starts from a fresh heap whatever ran before it, and the report and
// the driver measure the same thing.
func runSet(base *env) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rs := &resultSet{Box: gatherBoxFacts(base.runDir), Seed: base.seed, Seconds: base.seconds}
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			base.logf("running %s (trace %d)", w.Name, traced)
			file := filepath.Join(base.runDir, fmt.Sprintf("outcome-%s-%d.json", w.Name, traced))
			args := []string{
				"-workload", w.Name, "-trace", fmt.Sprint(traced), "-seed", fmt.Sprint(base.seed),
				"-seconds", fmt.Sprint(base.seconds), "-matchd", base.matchd, "-workdir", base.runDir, "-traces", base.traceDir, "-outcome", file,
			}
			cmd := exec.Command(self, args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			// A run whose gate failed exits non-zero too, after writing its
			// outcome; the set reports it. No outcome file means it broke.
			_ = os.Remove(file) // a leftover of an earlier set must not stand in
			runErr := cmd.Run()
			raw, err := os.ReadFile(file)
			if err != nil {
				return nil, fmt.Errorf("%s (trace %d): %v\n%s", w.Name, traced, runErr, stderr.String())
			}
			var o outcome
			if err := json.Unmarshal(raw, &o); err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			rs.Outcomes = append(rs.Outcomes, &o)
		}
	}
	return rs, nil
}

// printOutcome prints every metric of one run by name, with its unit.
func printOutcome(w io.Writer, o *outcome) {
	specs := endToEnd
	kind := "end-to-end"
	if o.Traced {
		specs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "## %s (%s) correct=%v attempted=%d failed=%d\n", o.Workload, kind, o.Correct, o.Attempted, o.Failed)
	for _, m := range specs {
		fmt.Fprintf(w, "  %-36s %16.6f %s\n", m.Name, o.Metrics[m.Name], m.Unit)
	}
	for i, r := range o.Rounds {
		fmt.Fprintf(w, "  round %d: setup_s=%.4f ops_per_s=%.4f p50_ms=%.4f p90_ms=%.4f p95_ms=%.4f p99_ms=%.4f n=%d\n",
			i, r.SetupS, r.OpsPerS, r.P50MS, r.P90MS, r.P95MS, r.P99MS, r.N)
	}
	if len(o.Samples) > 0 {
		b, _ := json.Marshal(o.Samples) // a map of ints always encodes
		fmt.Fprintf(w, "  samples: %s\n", b)
	}
	for _, v := range o.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

func printSet(w io.Writer, rs *resultSet) {
	fmt.Fprintf(w, "# bench: seed %d, %g s per run; nproc %d, GOMAXPROCS %d, %s, kernel %s, data dir on %s, commit %s\n",
		rs.Seed, rs.Seconds, rs.Box.NProc, rs.Box.GOMAXPROCS, rs.Box.GoVersion, rs.Box.Kernel, rs.Box.DataDirFS, rs.Box.Commit)
	for _, o := range rs.Outcomes {
		printOutcome(w, o)
	}
}

// printRepeat summarises N full sets: per workload and end-to-end
// metric, the median, the quartiles the driver uses, their distance as
// a share of the median against the metric's bound, and (max-min)/median.
func printRepeat(w io.Writer, sets []*resultSet) {
	fmt.Fprintf(w, "# repeat over %d sets\n", len(sets))
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %14s %9s %9s %7s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			var xs []float64
			for _, rs := range sets {
				if o := rs.find(wl.Name, false); o != nil {
					xs = append(xs, o.Metrics[m.Name])
				}
			}
			q1, q2, q3 := quartiles(xs)
			s := sortedCopy(xs)
			rng := ratio(quantile(s, 1)-s[0], q2)
			mark := ""
			if spread(xs) > m.Bound {
				mark = "  OVER"
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %14.4f %9.4f %9.4f %7.2f%s\n",
				wl.Name, m.Name, q2, q1, q3, spread(xs), rng, m.Bound, mark)
		}
	}
}

// worsening is how much b is worse than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints two result files side by side. End-to-end
// metrics are held to their bounds; exact counts must be identical.
func compareFiles(pathA, pathB string) int {
	load := func(path string) (*resultSet, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs resultSet
		return &rs, json.Unmarshal(raw, &rs)
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	fmt.Printf("# a: %s (commit %s)\n# b: %s (commit %s)\n", pathA, a.Box.Commit, pathB, b.Box.Commit)
	fmt.Printf("%-14s %-34s %16s %16s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, wl := range workloads {
		oa, ob := a.find(wl.Name, false), b.find(wl.Name, false)
		if oa != nil && ob != nil {
			for _, m := range endToEnd {
				wv := worsening(m, oa.Metrics[m.Name], ob.Metrics[m.Name])
				mark := ""
				if wv > m.Bound {
					mark, status = "  REGRESSION", 1
				}
				fmt.Printf("%-14s %-34s %16.4f %16.4f %8.1f%% %6.0f%%%s\n",
					wl.Name, m.Name, oa.Metrics[m.Name], ob.Metrics[m.Name], 100*wv, 100*m.Bound, mark)
			}
		}
		ta, tb := a.find(wl.Name, true), b.find(wl.Name, true)
		if ta == nil || tb == nil {
			continue
		}
		for _, m := range perLayer {
			va, vb := ta.Metrics[m.Name], tb.Metrics[m.Name]
			if va == 0 && vb == 0 {
				continue
			}
			mark := ""
			if exactCounts[m.Name] && wl.Name != "serve_mixed" && va != vb {
				mark, status = "  COUNT DIFFERS", 1
			}
			fmt.Printf("%-14s %-34s %16.4f %16.4f %8.1f%% %7s%s\n",
				wl.Name, m.Name, va, vb, 100*worsening(m, va, vb), "-", mark)
		}
	}
	return status
}

// exactCounts are the per-layer metrics that are pure functions of the
// inputs on every workload but serve_mixed (where the clock decides how
// reads and writes interleave): two runs of one commit with one seed
// must agree on them to the last digit.
var exactCounts = map[string]bool{
	"engine.candidates_per_query": true, "engine.compared_per_query": true, "engine.matches_per_compared": true,
	"stream.pairs_examined_per_insert": true, "stream.applications_per_insert": true,
	"stream.passes_per_insert": true, "stream.fired_per_examined": true,
	"store.wal_bytes_per_record": true, "store.replayed_records": true,
	"fs.syncs_per_insert": true, "fs.writes_per_insert": true, "fs.write_amplification": true,
	"core.rcks_found": true, "semantics.pairs_examined": true, "semantics.lhs_evaluations": true,
	"semantics.applications": true, "semantics.passes": true,
	"matching.compared_pairs": true,
}
