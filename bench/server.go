package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"mdmatch/internal/obs"
)

// server is one matchd child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	log    *os.File
	waited chan struct{}
	// setup is exec → first /readyz 200.
	setup time.Duration
}

// live tracks running children so every exit path (error return,
// signal, test failure) can reap them.
var live struct {
	sync.Mutex
	m map[*server]struct{}
}

func killAllServers() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs matchd with the benchmark's fixed flags and waits
// for /readyz. dataDir "" boots the in-memory daemon. conns bounds the
// client's connection pool (the workload's client count). yield starts
// the daemon under the SCHED_IDLE policy, for the open-loop workload:
// generator and server share two cores, and a generator that waits for
// a core the chase holds sends late. Whenever the generator sleeps,
// which is nearly always, the daemon has both cores as before.
func startServer(e *env, dataDir string, conns int, yield bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-k", strconv.Itoa(e.k), "-seed", strconv.Itoa(serverSeed), "-log-level", "warn",
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-snapshot-wal-bytes", strconv.Itoa(snapshotWALBytes))
	}
	logf, err := os.CreateTemp(e.runDir, "matchd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.matchd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the harness even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		log:  logf,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns: conns + 1, MaxIdleConnsPerHost: conns + 1,
				DisableCompression: true,
			},
		},
		waited: make(chan struct{}),
	}
	start := time.Now()
	launch := cmd.Start
	if yield {
		launch = func() error { return startIdle(cmd) }
	}
	if err := launch(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", e.matchd, err)
	}
	live.Lock()
	if live.m == nil {
		live.m = map[*server]struct{}{}
	}
	live.m[s] = struct{}{}
	live.Unlock()
	go func() { _ = cmd.Wait(); close(s.waited) }()

	deadline := start.Add(120 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case <-s.waited:
			tail := s.logTail()
			s.kill()
			return nil, fmt.Errorf("matchd exited during startup: %s", tail)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("matchd not ready after %s", time.Since(start))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startIdle starts cmd under SCHED_IDLE, which needs no privilege: any
// waking thread of the default policy preempts it at once. A child
// inherits the policy of the thread that forks it, so the calling
// goroutine pins itself to its thread, switches that thread to
// SCHED_IDLE for the length of the fork, and switches it back.
func startIdle(cmd *exec.Cmd) error {
	const schedOther, schedIdle = 0, 5
	setPolicy := func(policy uintptr) error {
		var param struct{ priority int32 } // must be 0 for both policies
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, policy, uintptr(unsafe.Pointer(&param)))
		if errno != 0 {
			return fmt.Errorf("sched_setscheduler(%d): %w", policy, errno)
		}
		return nil
	}
	runtime.LockOSThread()
	if err := setPolicy(schedIdle); err != nil {
		runtime.UnlockOSThread()
		return err
	}
	err := cmd.Start()
	if rerr := setPolicy(schedOther); rerr != nil {
		// The thread stays locked, and so out of the scheduler's pool: no
		// other goroutine may inherit an idle-policy thread.
		if err == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return rerr
	}
	runtime.UnlockOSThread()
	return err
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// kill sends SIGKILL and waits for the process to be reaped. It is the
// only way the harness stops a server: a crash is what the durability
// gate wants, and a read-only server has nothing to flush.
func (s *server) kill() {
	live.Lock()
	_, running := live.m[s]
	delete(live.m, s)
	live.Unlock()
	if !running {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.waited
	s.client.CloseIdleConnections()
	s.log.Close()
}

// rssPeakMB reads the child's VmHWM.
func (s *server) rssPeakMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM returns the peak resident set of pid in MiB, from /proc.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// getJSON GETs path and decodes the JSON body into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// statsDoc is the part of GET /stats the gates read.
type statsDoc struct {
	IndexedRecords int    `json:"indexed_records"`
	Plan           string `json:"plan"`
	Stream         struct {
		Records      int `json:"records"`
		Applications int `json:"applications"`
		Passes       int `json:"passes"`
		Chase        struct {
			PairsExamined  int64 `json:"pairs_examined"`
			LHSEvaluations int64 `json:"lhs_evaluations"`
			RuleFirings    int64 `json:"rule_firings"`
		} `json:"chase"`
	} `json:"stream"`
	Store *struct {
		WALBytesSinceSnapshot int64 `json:"wal_bytes_since_snapshot"`
	} `json:"store"`
}

func (s *server) stats() (statsDoc, error) {
	var d statsDoc
	return d, s.getJSON("/stats", &d)
}

// awaitFirstSnapshot waits for the background snapshot a durable daemon
// takes right after loading its corpus: the load alone exceeds the
// snapshot threshold, so the snapshot loop's first tick fires. (A
// corpus too small for that has no snapshot pending, and there is
// nothing to wait for.) It is lazy set-up: left alone it lands at a
// random point of the first measured second and stalls whatever it
// meets.
func (s *server) awaitFirstSnapshot() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.stats()
		if err != nil {
			return err
		}
		if st.Store == nil {
			return fmt.Errorf("awaiting a snapshot of a daemon without -data-dir")
		}
		if st.Store.WALBytesSinceSnapshot < snapshotWALBytes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no background snapshot after 30 s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterDoc is GET /clusters/{id}.
type clusterDoc struct {
	Cluster int   `json:"cluster"`
	Members []int `json:"members"`
}

func (s *server) cluster(id int) (clusterDoc, error) {
	var d clusterDoc
	return d, s.getJSON("/clusters/"+strconv.Itoa(id), &d)
}

// scrape is one reading of GET /metrics: sample name → value.
// Histograms keep their _sum and _count series; labelled series are
// summed over their labels, and additionally kept per status class as
// name{code=2xx}. It goes through the repo's own exposition parser, so
// the harness reads exactly what an operator's scraper would.
type scrape map[string]float64

func (s *server) scrape() (scrape, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := scrape{}
	for _, f := range fams {
		for _, sm := range f.Samples {
			if strings.HasSuffix(sm.Name, "_bucket") {
				continue
			}
			out[sm.Name] += sm.Value
			if code, ok := sm.Labels["code"]; ok {
				out[sm.Name+"{code="+code+"}"] += sm.Value
			}
		}
	}
	return out, nil
}

// delta is after-before for one counter.
func (after scrape) delta(before scrape, name string) float64 { return after[name] - before[name] }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
