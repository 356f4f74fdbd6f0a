package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one prepared HTTP request: everything that can be done before
// the clock starts has been done.
type op struct {
	Path string // "/match" or "/records"
	Body []byte
}

// opResult is what one op observed.
type opResult struct {
	// Latency runs from the send (closed loop) or from the op's due time
	// (open loop) to the last byte of the response.
	Latency time.Duration
	// Late is how long after its due time the op was sent (open loop).
	Late   time.Duration
	Status int    // 0 on a transport error
	Body   []byte // response body, kept for the correctness gate
}

func (r opResult) ok() bool { return r.Status >= 200 && r.Status < 300 }

// do sends one op and reads the whole response.
func do(client *http.Client, base string, o op, buf *bytes.Buffer) (status int, body []byte) {
	req, err := http.NewRequest(http.MethodPost, base+o.Path, bytes.NewReader(o.Body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, append([]byte(nil), buf.Bytes()...)
}

// closedLoop sends ops over `clients` connections; each client sends
// its next op only after the previous reply, so a slower server is
// offered less load. Ops are claimed in order from a shared cursor, so
// with one client the server sees exactly the given sequence. It
// returns the per-op results and the wall time of the whole pass.
func closedLoop(client *http.Client, base string, ops []op, clients int) ([]opResult, time.Duration) {
	res := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				status, body := do(client, base, ops[i], &buf)
				res[i] = opResult{Latency: time.Since(t0), Status: status, Body: body}
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// poissonSchedule returns n due times (offsets from the start of the
// run) of a Poisson process with the given rate per second. It is a
// pure function of the seed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rnd.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends op i at start+due[i] regardless of how the server is
// doing: the calling goroutine is the dispatcher, which waits for each
// due time and hands the op to one of `conns` connection goroutines.
// Latency is taken from the DUE time, so the wait a stall imposes on
// the requests queued behind it is counted; Late records how far behind
// schedule each send was (dispatcher wake-up plus the wait for a free
// connection). now and sleep are the clock (time.Now / preciseSleep
// outside tests).
func openLoop(send func(i int) (int, []byte), due []time.Duration, conns int,
	now func() time.Time, sleep func(time.Duration)) ([]opResult, time.Duration) {
	res := make([]opResult, len(due))
	// Sized to the number of sends: the dispatcher must never block on a
	// busy server, or the loop would close.
	ready := make(chan int, len(due))
	var wg sync.WaitGroup
	start := now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				dueAt := start.Add(due[i])
				sent := now()
				status, body := send(i)
				res[i] = opResult{
					Latency: now().Sub(dueAt), Late: sent.Sub(dueAt),
					Status: status, Body: body,
				}
			}
		}()
	}
	for i := range due {
		if d := start.Add(due[i]).Sub(now()); d > 0 {
			sleep(d)
		}
		ready <- i
		// The send made a connection goroutine runnable on this P. Yield,
		// so that it runs here and now: the dispatcher's next stop is a
		// raw nanosleep, and a P parked in a syscall keeps its run queue
		// until another thread wakes up and steals from it.
		runtime.Gosched()
	}
	close(ready)
	wg.Wait()
	return res, now().Sub(start)
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep
// rides the Go scheduler's timers, which on Linux wake up to a
// millisecond late (0.4 ms at the median on the 2-core reference box);
// an open-loop generator at 1000 req/s cannot afford that, and spinning
// would steal a core from the server under test. The sleeping thread
// keeps its P until the scheduler's monitor takes it back, so only the
// one dispatcher sleeps this way and the caller lends it a spare P.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// httpSender adapts ops to openLoop's send. Each connection goroutine
// needs its own read buffer, so buffers come from a pool.
func httpSender(client *http.Client, base string, ops []op) func(int) (int, []byte) {
	pool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	return func(i int) (int, []byte) {
		buf := pool.Get().(*bytes.Buffer)
		defer pool.Put(buf)
		return do(client, base, ops[i], buf)
	}
}

// settle runs a garbage collection in the generator before a measured
// window. The harness builds references and request bodies right before
// the first round; left alone, the collection of that garbage lands in
// the first measured window and the harness measures itself.
func settle() { runtime.GC() }

// latenciesMS extracts the latencies of the results, in milliseconds.
func latenciesMS(res []opResult) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = ms(r.Latency)
	}
	return out
}

// countFailed counts transport errors and non-2xx replies.
func countFailed(res []opResult) int {
	n := 0
	for _, r := range res {
		if !r.ok() {
			n++
		}
	}
	return n
}
