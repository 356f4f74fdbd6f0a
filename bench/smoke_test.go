package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload boots a real matchd -k 50 and pushes a couple
// of hundred ops through every workload, untraced and traced, so the
// harness cannot rot unnoticed. It runs in -short mode too: the whole
// thing takes a few seconds. Child processes are SIGKILLed and the
// scratch directory removed on every exit path (t.Cleanup, plus
// Pdeathsig on the children should the test binary itself die).
func TestSmokeEveryWorkload(t *testing.T) {
	tmp := t.TempDir()
	matchd := filepath.Join(tmp, "matchd")
	build := exec.Command("go", "build", "-o", matchd, "mdmatch/cmd/matchd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/matchd: %v\n%s", err, out)
	}
	t.Cleanup(killAllServers)

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				runDir, err := os.MkdirTemp(tmp, "run-")
				if err != nil {
					t.Fatal(err)
				}
				e := &env{
					matchd: matchd, runDir: runDir, traceDir: tmp,
					k: 50, sz: smokeSizes, seed: 3, seconds: 1, traced: traced,
					logf: t.Logf,
				}
				if w.Name == "serve_mixed" {
					// Generator validity is judged on the median window; with
					// one half-second round, one hiccup of the box fails it.
					e.seconds = 3 * roundSeconds
				}
				o, err := workloadFuncs[w.Name](e)
				if err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Failed != 0 {
					t.Errorf("correct=%v failed=%d violations=%v", o.Correct, o.Failed, o.Violations)
				}
				if o.Attempted < 1 {
					t.Errorf("attempted = %d", o.Attempted)
				}
				line := driverLine(o)
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(line.Metrics) != len(specs) {
					t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(specs))
				}
				if !traced {
					for _, m := range specs {
						if v := line.Metrics[m.Name].Value; v <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v)
						}
					}
				}
				live.Lock()
				n := len(live.m)
				live.Unlock()
				if n != 0 {
					t.Errorf("%d matchd children still running after the workload returned", n)
				}
			})
		}
	}
}
