// Command bench is the repository's one benchmark: it measures the
// whole stack the way its users meet it and attributes what it measures
// to layers. Four serve_* workloads drive a real cmd/matchd child
// process over HTTP (single and batched POST /match, durable
// POST /records with kill-and-recover, and an open-loop mix of both);
// three paper_* workloads run the stages of the paper's batch pipeline
// in-process. Every run checks the program's answers against an
// in-process reference built from the same library, and fails on any
// difference.
//
// The driver contract (BENCHMARK.json) is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints one JSON object as the last line of standard output:
// the gated end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Without --workload the command runs every workload
// both ways and prints every metric by name with its unit; -repeat and
// -compare are the repeatability tools. bench/README.md has the metric
// table, the workloads' reasons and the first layer budget.
//
// The harness adds nothing to the program: layers are measured from
// outside, through seams that already exist (store.WithFS, the
// stream.Observer hook, trace.Tracer.StartRoot and the spans the
// layers already emit, /metrics, /stats, /proc/<pid>/status).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, both untraced and traced)")
		seed     = flag.Int64("seed", 1, "seed of the generated request sequences")
		seconds  = flag.Float64("seconds", 20, "how long one run measures (sets the number of rounds)")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
		matchd   = flag.String("matchd", filepath.Join(".bench_build", "bin", "matchd"), "built cmd/matchd binary")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "tmp"), "scratch directory (data dirs, child logs)")
		traces   = flag.String("traces", filepath.Join(".bench_build", "traces"), "where traced runs leave trace-<workload>.json")
		repeat   = flag.Int("repeat", 0, "run N full sets and print per-metric median, quartiles and (max-min)/median")
		compare  = flag.Bool("compare", false, "compare two result files (given as arguments) against the bounds")
		out      = flag.String("out", "", "write the full result set to this JSON file")
		outcomeF = flag.String("outcome", "", "with -workload: also write the full outcome (per-round readings, violations) to this JSON file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	runDir, err := os.MkdirTemp(mkdirAll(*workdir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cleanup := func() {
		killAllServers()
		os.RemoveAll(runDir)
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	abs, err := filepath.Abs(*matchd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	base := env{
		matchd: abs, runDir: runDir,
		traceDir: mkdirAll(*traces),
		k:        serverK, sz: fullSizes, seed: *seed, seconds: *seconds,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}

	if *workload != "" {
		fn, ok := workloadFuncs[*workload]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *workload, workloadNames())
			return 2
		}
		e := base
		e.traced = *traceOn != 0
		o, err := fn(&e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printOutcome(os.Stderr, o)
		if *outcomeF != "" {
			if err := writeJSON(*outcomeF, o); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(driverLine(o)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !o.Correct {
			fmt.Fprintln(os.Stderr, "bench: a correctness, durability or validity gate failed")
			return 1
		}
		return 0
	}

	sets := 1
	if *repeat > 0 {
		sets = *repeat
	}
	var all []*resultSet
	ok := true
	for i := 0; i < sets; i++ {
		rs, err := runSet(&base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		all = append(all, rs)
		printSet(os.Stdout, rs)
		ok = ok && rs.green()
	}
	if *repeat > 0 {
		printRepeat(os.Stdout, all)
	}
	if *out != "" {
		if err := writeJSON(*out, all[len(all)-1]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness, durability or validity gate failed")
		return 1
	}
	return 0
}

// mkdirAll creates dir and returns it; an error surfaces at first use.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// driverMetric and driverResult are the driver's output contract.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// driverLine renders an outcome as the contract's last line: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func driverLine(o *outcome) driverResult {
	specs := endToEnd
	if o.Traced {
		specs = perLayer
	}
	res := driverResult{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: map[string]driverMetric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	for _, m := range specs {
		res.Metrics[m.Name] = driverMetric{Value: o.Metrics[m.Name], Unit: m.Unit}
	}
	return res
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
