// Command matchd serves record matching over HTTP: the library's
// compile-once/serve-many split made runnable. At startup it generates a
// credit/billing corpus (internal/gen), derives the top quality RCKs
// from the 7 card-holder MDs (findRCKs, Section 5), compiles them into
// an engine plan with RCK-style blocking keys, and indexes the credit
// side. It then answers matching queries for billing-shaped records.
//
// The credit side is additionally deduplicated ONLINE: an incremental
// enforcement engine (internal/stream) chases the self-match dedup
// rules (gen.DedupMDs) as records arrive, so POST /records returns the
// new record's cluster and the rules its arrival fired, and
// GET /clusters/{id} reports a record's current cluster and resolved
// values. Enforcement cannot be undone, so with the enforcer attached
// record ids are insert-once and DELETE only un-indexes a record from
// the match side; its cluster history stays.
//
// With -data-dir the service is DURABLE (internal/store): every
// mutation is written ahead to a checksummed WAL, snapshots are taken
// in the background once enough WAL bytes accumulate (and on demand via
// POST /snapshot), and a restart recovers the exact pre-crash state —
// newest snapshot plus the WAL suffix replayed in original insertion
// order — instead of regenerating and re-chasing the corpus. On SIGTERM
// the server drains in-flight requests, takes a final snapshot and
// closes the log.
//
// The process is OBSERVABLE (internal/obs): the listener comes up
// immediately and GET /readyz answers 503 — reporting recovery replay
// progress — until the state is rebuilt, GET /metrics serves the full
// instrument set (HTTP surface, match engine, chase, durability) in
// Prometheus text exposition format, every request carries an
// X-Request-Id and emits one structured log line (-log-format text or
// json), and -debug-addr exposes net/http/pprof on a side listener.
//
//	matchd -addr :8080 -k 1000 -data-dir /var/lib/matchd -log-format json
//
// Endpoints (JSON in/out unless noted):
//
//	POST   /match         {"record": {"fn": "...", ...}} or {"values": [...]}
//	                      or {"batch": [{...}, ...]} for a worker-pool batch
//	POST   /records       add a credit record; returns cluster + applied rules
//	DELETE /records/{id}  un-index a credit record (cluster history stays)
//	GET    /clusters/{id} a record's cluster, members and resolved values
//	POST   /snapshot      write a snapshot now (requires -data-dir)
//	GET    /stats         engine + enforcement + store counters, uptime
//	GET    /healthz       liveness (the process is up)
//	GET    /readyz        readiness (state recovered; 503 + replay progress before)
//	GET    /metrics       Prometheus text exposition
//
// Request bodies are capped at -max-body-bytes (413 beyond it). See
// docs/ARCHITECTURE.md for a curl walkthrough including a real
// kill-and-recover transcript and the metrics name table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdmatch/internal/blocking"
	"mdmatch/internal/core"
	"mdmatch/internal/engine"
	"mdmatch/internal/fault"
	"mdmatch/internal/gen"
	"mdmatch/internal/obs"
	"mdmatch/internal/retry"
	"mdmatch/internal/schema"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
	"mdmatch/internal/trace"
)

func main() {
	var cfg config
	var logFormat, logLevel string
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.k, "k", 1000, "card holders in the generated demo corpus")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus generation seed")
	flag.IntVar(&cfg.m, "m", 5, "number of RCKs to derive and serve")
	flag.IntVar(&cfg.workers, "workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.shards, "shards", 0, "index/store shard count (0 = default)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durability directory (empty = in-memory only)")
	flag.Int64Var(&cfg.maxBody, "max-body-bytes", 1<<20, "request body cap (413 beyond it)")
	flag.Int64Var(&cfg.snapBytes, "snapshot-wal-bytes", 8<<20, "WAL bytes that trigger a background snapshot")
	flag.BoolVar(&cfg.noSync, "no-fsync", false, "skip the per-append WAL fsync (faster, loses a tail on OS crash)")
	flag.StringVar(&logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "side listener for net/http/pprof (empty = disabled)")
	flag.IntVar(&cfg.slowTraceMS, "slow-trace-ms", 50, "slow-trace retention threshold in milliseconds; every request at least this slow is kept for GET /debug/traces (0 = none)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 1000, "additionally keep a deterministic 1-in-N sample of fast request traces (0 = none)")
	flag.IntVar(&cfg.traceCapacity, "trace-capacity", 256, "retained completed traces across the ring")
	flag.BoolVar(&cfg.exemplars, "exemplars", false, "attach OpenMetrics trace_id exemplars to the HTTP latency histogram buckets")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "admitted /match + /records requests in flight before new ones get 429 (0 = unlimited)")
	flag.IntVar(&cfg.queueHighWatermark, "queue-high-watermark", 0, "engine+stream queue depth at which new data requests get 503 (0 = disabled)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "bound on the SIGTERM drain; on expiry (or a second signal) the final snapshot is aborted and the process exits 1")
	var faultSpecs string
	flag.StringVar(&faultSpecs, "fault", "", "comma-separated durability fault injections, e.g. sync@2:eio,write@5+:enospc (testing; see internal/fault)")
	flag.Parse()

	if faultSpecs != "" {
		plan := fault.NewPlan()
		for _, spec := range strings.Split(faultSpecs, ",") {
			inj, err := fault.ParseSpec(strings.TrimSpace(spec))
			if err != nil {
				fmt.Fprintln(os.Stderr, "matchd: -fault:", err)
				os.Exit(1)
			}
			plan.Inject(inj)
		}
		cfg.faultPlan = plan
	}

	logger, err := newLogger(logFormat, logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	cfg.logger = logger
	cfg.reg = obs.NewRegistry()

	// The listener comes up BEFORE the state is built: /healthz, /readyz
	// and /metrics answer immediately, the data endpoints 503 until the
	// corpus is generated (or the previous state recovered). A restart
	// with a large WAL is exactly when an orchestrator needs /readyz to
	// report progress instead of timing out on a dead port.
	srv := newServer(cfg)
	mux := srv.routes()
	httpm := obs.NewHTTPMetrics(cfg.reg, "matchd")
	if srv.tracer != nil {
		httpm.WithTracer(srv.tracer, cfg.exemplars)
	}
	routeOf := func(r *http.Request) string { _, pattern := mux.Handler(r); return pattern }
	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           httpm.Middleware(logger, routeOf, mux),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if cfg.debugAddr != "" {
		// The blank net/http/pprof import registers on the default mux,
		// which only this side listener serves. Header/idle timeouts keep
		// a stuck client from pinning a connection forever; deliberately
		// no WriteTimeout — pprof's profile?seconds=N streams for longer
		// than any fixed cap.
		dbg := &http.Server{
			Addr:              cfg.debugAddr,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			logger.Info("debug listener (pprof)", "addr", cfg.debugAddr)
			if err := dbg.ListenAndServe(); err != nil {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	buildDone := make(chan error, 1)
	go func() {
		err := srv.build()
		if err == nil {
			logger.Info("serving", "plan", srv.eng.Plan().String(),
				"records", srv.eng.Len(), "addr", cfg.addr)
		}
		buildDone <- err
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	for {
		select {
		case err := <-buildDone:
			if err != nil {
				logger.Error("startup failed", "err", err)
				hs.Close()
				os.Exit(1)
			}
			buildDone = nil // built; a nil channel never fires again
		case err := <-errCh:
			srv.close()
			logger.Error("server", "err", err)
			os.Exit(1)
		case <-ctx.Done():
			stop()
			srv.enterDraining()
			logger.Info("signal received, draining", "timeout", cfg.drainTimeout)
			// Re-arm signal delivery: a SECOND signal during the drain
			// aborts it (a wedged disk must not hang shutdown forever).
			abort := make(chan os.Signal, 1)
			signal.Notify(abort, os.Interrupt, syscall.SIGTERM)
			if buildDone != nil {
				// Let the build finish (or fail) before quiescing: close()
				// snapshots through the engine the build is constructing.
				if err := <-buildDone; err != nil {
					logger.Error("startup failed", "err", err)
					os.Exit(1)
				}
			}
			done := make(chan struct{})
			go func() {
				sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
				defer cancel()
				// Shutdown waits for in-flight handlers — including MatchBatch
				// calls and their worker pools, which join before the handler
				// returns — so the final snapshot below sees a quiesced engine.
				if err := hs.Shutdown(sctx); err != nil {
					logger.Warn("drain", "err", err)
				}
				srv.close()
				close(done)
			}()
			watchdog := time.NewTimer(cfg.drainTimeout)
			defer watchdog.Stop()
			select {
			case <-done:
				logger.Info("bye")
				return
			case <-abort:
				logger.Error("second signal during drain: aborting final snapshot")
				os.Exit(1)
			case <-watchdog.C:
				logger.Error("drain timeout exceeded: aborting final snapshot", "timeout", cfg.drainTimeout)
				os.Exit(1)
			}
		}
	}
}

// newLogger builds the process logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// config collects the service parameters (flag values, and the knobs
// tests turn directly).
type config struct {
	addr      string
	k         int
	seed      int64
	m         int
	workers   int
	shards    int
	dataDir   string
	maxBody   int64
	snapBytes int64
	noSync    bool
	debugAddr string

	// Tracing: slowTraceMS is the tail-retention threshold for completed
	// request traces, traceSample keeps a deterministic 1-in-N sample of
	// the fast ones, traceCapacity bounds the ring, and exemplars links
	// the latency histogram's buckets to trace ids on /metrics. A tracer
	// is built only when reg is set (tracing rides the obs middleware).
	slowTraceMS   int
	traceSample   int
	traceCapacity int
	exemplars     bool

	// Admission control: maxInflight bounds admitted /match + /records
	// requests (0 = unlimited; beyond it 429 + Retry-After), and
	// queueHighWatermark sheds new data requests with 503 while the
	// engine's in-flight batches plus the enforcer's insert queue are at
	// or above it (0 = disabled).
	maxInflight        int
	queueHighWatermark int
	// drainTimeout bounds the SIGTERM drain (requests + final snapshot).
	drainTimeout time.Duration
	// faultPlan, when set, wraps the store's filesystem in the
	// deterministic fault injector (-fault flag; tests arm it directly).
	faultPlan *fault.Plan

	// reg, when set, instruments every layer (engine, stream, store) on
	// that registry; nil builds an uninstrumented server (what most unit
	// tests want, and what the overhead benchmark compares against).
	reg    *obs.Registry
	logger *slog.Logger // nil = slog.Default()
}

// buildServer derives rules, compiles the plan, opens the durability
// store (when configured) and populates the index, synchronously. main
// instead calls newServer + build on a goroutine so the listener can
// answer /readyz during a long recovery; tests use this one-shot form.
func buildServer(cfg config) (*server, error) {
	srv := newServer(cfg)
	if err := srv.build(); err != nil {
		return nil, err
	}
	return srv, nil
}

// newServer allocates the serving shell: routes can be registered and
// health endpoints answered immediately; the data endpoints 503 until
// build marks the server ready.
func newServer(cfg config) *server {
	lg := cfg.logger
	if lg == nil {
		lg = slog.Default()
	}
	s := &server{
		cfg: cfg, log: lg, started: time.Now(),
		maxBody: cfg.maxBody, snapBytes: cfg.snapBytes,
	}
	if cfg.reg != nil {
		s.hm = obs.NewHealthMetrics(cfg.reg, func() float64 { return float64(s.health.Load()) })
		obs.AttachRuntime(cfg.reg)
		if cfg.slowTraceMS > 0 || cfg.traceSample > 0 {
			s.tracer = trace.New(trace.Options{
				Slow:     time.Duration(cfg.slowTraceMS) * time.Millisecond,
				SampleN:  cfg.traceSample,
				Capacity: cfg.traceCapacity,
			})
		}
	}
	return s
}

// build constructs the serving state: a fresh data directory — or none
// — loads the generated corpus as one batch; a non-empty one recovers
// the previous process's exact state instead. On success the server is
// marked ready.
func (s *server) build() error {
	cfg := s.cfg
	ds, err := gen.Generate(genConfig(cfg))
	if err != nil {
		return err
	}
	target := gen.Target(ds.Ctx)
	sigma := gen.HolderMDs(ds.Ctx)
	cm := core.DefaultCostModel()
	cm.Lt = ds.LtStats()
	keys, err := core.FindRCKs(ds.Ctx, sigma, target, cfg.m+4, cm)
	if err != nil {
		return err
	}
	keys = core.PruneSubsumed(keys)
	if len(keys) > cfg.m {
		keys = keys[:cfg.m]
	}
	specs := []blocking.KeySpec{
		blocking.NewKeySpec(core.P("ln", "ln"), core.P("zip", "zip")).
			WithEncoder(0, blocking.SoundexEncode),
		blocking.NewKeySpec(core.P("tel", "phn")),
		blocking.NewKeySpec(core.P("fn", "fn"), core.P("dob", "dob")).
			WithEncoder(0, blocking.SoundexEncode),
	}
	plan, err := engine.Compile(ds.Ctx, keys, specs)
	if err != nil {
		return err
	}
	dedupCtx, err := schema.NewPair(ds.Credit.Rel, ds.Credit.Rel)
	if err != nil {
		return err
	}
	streamOpts := []stream.Option{
		stream.ClusterRules(gen.DedupClusterRules()...),
		// The chase is serial; workers only fan out batch index seeding.
		stream.WithWorkers(0),
		stream.WithLogger(s.log),
	}
	if cfg.reg != nil {
		streamOpts = append(streamOpts, stream.WithObserver(obs.NewStreamObserver(cfg.reg)))
	}
	enf, err := stream.New(dedupCtx, gen.DedupMDs(dedupCtx), streamOpts...)
	if err != nil {
		return err
	}
	opts := []engine.Option{
		engine.WithWorkers(cfg.workers), engine.WithShards(cfg.shards), engine.WithStream(enf),
	}
	if cfg.reg != nil {
		opts = append(opts, engine.WithObserver(obs.NewEngineObserver(cfg.reg)))
	}
	var st *store.Store
	if cfg.dataDir != "" {
		sopts := []store.Option{store.WithLogger(s.log)}
		if cfg.noSync {
			sopts = append(sopts, store.WithNoSync())
		}
		if cfg.reg != nil {
			sopts = append(sopts, store.WithObserver(obs.NewStoreObserver(cfg.reg)))
		}
		if cfg.faultPlan != nil {
			if s.hm != nil {
				cfg.faultPlan.OnFault(func(op fault.Op) {
					s.hm.FaultInjected.With(string(op)).Inc()
				})
			}
			sopts = append(sopts, store.WithFS(fault.Wrap(store.OSFS{}, cfg.faultPlan)))
		}
		st, err = store.Open(cfg.dataDir, engine.Fingerprint(plan, enf), sopts...)
		if err != nil {
			return err
		}
		// Published before recovery starts so /readyz can report replay
		// progress while engine.New is still chasing the WAL suffix.
		s.stp.Store(st)
		opts = append(opts, engine.WithStore(st))
	}
	fresh := st == nil || st.Empty()
	eng, err := engine.New(plan, opts...)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return err
	}
	if fresh {
		if err := eng.Load(ds.Credit); err != nil {
			if st != nil {
				st.Close()
			}
			return err
		}
	} else {
		s.log.Info("recovered",
			"records", enf.Len(), "clusters", enf.Stats().Clusters,
			"dir", cfg.dataDir, "snapshot_lsn", st.SnapshotLSN(), "lsn", st.LSN())
	}
	s.eng, s.ctx = eng, ds.Ctx
	maxID := -1
	for _, t := range enf.Instance().Tuples {
		if t.ID > maxID {
			maxID = t.ID
		}
	}
	s.nextID.Store(int64(maxID))
	if st != nil && s.snapBytes > 0 {
		s.stopSnap = make(chan struct{})
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	s.ready.Store(true)
	return nil
}

func genConfig(cfg config) gen.Config {
	g := gen.DefaultConfig(cfg.k)
	g.Seed = cfg.seed
	return g
}

type server struct {
	cfg     config
	log     *slog.Logger
	eng     *engine.Engine
	ctx     schema.Pair
	nextID  atomic.Int64
	started time.Time

	// ready flips once build completes; eng/ctx/nextID are written
	// before it and only read by handlers behind it. The store pointer
	// is separate (and atomic) because /readyz reads it DURING build to
	// report recovery replay progress.
	ready atomic.Bool
	stp   atomic.Pointer[store.Store]

	// health is the degraded-mode state machine (healthState values);
	// inflightReqs counts admitted requests against -max-inflight; hm is
	// the robustness metric set (nil when uninstrumented). See health.go.
	health       atomic.Int32
	inflightReqs atomic.Int64
	hm           *obs.HealthMetrics

	// tracer collects completed request traces for /debug/traces (nil
	// when tracing is off or the server is uninstrumented).
	tracer *trace.Tracer

	maxBody   int64
	snapBytes int64
	stopSnap  chan struct{}
	snapWG    sync.WaitGroup
	closeOnce sync.Once
}

// store returns the durability store, or nil when not durable (or not
// yet opened).
func (s *server) store() *store.Store { return s.stp.Load() }

// snapshotLoop is the background snapshot trigger: once the WAL has
// accumulated snapBytes since the last snapshot, capture one (bounding
// the replay debt a crash would pay). A failed snapshot retries on a
// capped exponential backoff instead of hammering a misbehaving disk
// every tick — and never wedges the loop: the ticker keeps running, so
// stop (and the WAL-failure health check) stay responsive throughout.
func (s *server) snapshotLoop() {
	defer s.snapWG.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	bo := retry.Policy{Initial: 2 * time.Second, Max: time.Minute, Seed: 1}.Backoff()
	var nextTry time.Time
	for {
		select {
		case <-s.stopSnap:
			return
		case <-tick.C:
			st := s.store()
			// The snapshotter doubles as the degraded-mode watchdog: a
			// WAL failure latched outside the request path (segment
			// rotation during a snapshot) still flips serving read-only.
			if err := st.Failed(); err != nil {
				s.enterDegraded(context.Background(), err)
			}
			if st.BytesSinceSnapshot() < s.snapBytes {
				continue
			}
			if !nextTry.IsZero() && time.Now().Before(nextTry) {
				continue // backing off after a failure
			}
			if lsn, err := s.eng.Snapshot(); err != nil {
				wait := bo.Next()
				nextTry = time.Now().Add(wait)
				s.log.Error("background snapshot failed; backing off",
					"err", err, "retry_in", wait, "attempt", bo.Attempt())
			} else {
				bo.Reset()
				nextTry = time.Time{}
				s.log.Info("background snapshot", "lsn", lsn)
			}
		}
	}
}

// close quiesces durability: stop the background snapshotter, take a
// final snapshot (the caller has already drained in-flight handlers)
// and close the WAL. Safe to call more than once.
func (s *server) close() {
	s.closeOnce.Do(func() {
		if s.stopSnap != nil {
			close(s.stopSnap)
			s.snapWG.Wait()
		}
		st := s.store()
		if st == nil {
			return
		}
		if s.ready.Load() {
			if lsn, err := s.eng.Snapshot(); err != nil {
				s.log.Error("final snapshot", "err", err)
			} else {
				s.log.Info("final snapshot", "lsn", lsn)
			}
		}
		if err := st.Close(); err != nil {
			s.log.Error("closing store", "err", err)
		}
	})
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match", s.whenReady(s.admit(s.limited(s.handleMatch))))
	mux.HandleFunc("POST /records", s.whenReady(s.admit(s.mutating(s.limited(s.handleAddRecord)))))
	mux.HandleFunc("DELETE /records/{id}", s.whenReady(s.mutating(s.handleDeleteRecord)))
	mux.HandleFunc("GET /clusters/{id}", s.whenReady(s.handleCluster))
	mux.HandleFunc("POST /snapshot", s.whenReady(s.handleSnapshot))
	mux.HandleFunc("GET /stats", s.whenReady(s.handleStats))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.reg != nil {
		mux.Handle("GET /metrics", s.cfg.reg.Handler())
	}
	if s.tracer != nil {
		mux.HandleFunc("GET /debug/traces", s.handleTraces)
		mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	}
	return mux
}

// handleTraces lists the retained completed traces, newest first:
// slow traces (at least -slow-trace-ms) plus the deterministic 1-in-N
// sample, as frozen span trees.
func (s *server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.tracer.Traces()})
}

// handleTrace fetches one retained trace by trace id (the id the
// response traceparent header and the metrics exemplars carry).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.tracer.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// wantExplain reports whether the request asked for provenance
// (?explain=1 or ?explain=true).
func wantExplain(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true":
		return true
	}
	return false
}

// whenReady gates a data handler on startup completion: 503 (with
// Retry-After) until the corpus is built or the previous state
// recovered. /healthz, /readyz and /metrics stay un-gated.
func (s *server) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("starting: state not yet recovered"))
			return
		}
		h(w, r)
	}
}

// readyResponse is the /readyz body. Replay progress is meaningful only
// while a durable restart is recovering: applied climbs toward target
// as the WAL suffix replays (both 0 on a fresh build). Health reports
// the degraded-mode state machine: "degraded-readonly" still answers
// 200 — the daemon serves reads and should keep receiving them — while
// "draining" answers 503 so balancers stop routing here.
type readyResponse struct {
	Ready         bool   `json:"ready"`
	Health        string `json:"health"`
	ReplayApplied uint64 `json:"replay_applied"`
	ReplayTarget  uint64 `json:"replay_target"`
}

func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	hs := s.healthState()
	res := readyResponse{Ready: s.ready.Load(), Health: hs.String()}
	if st := s.store(); st != nil {
		res.ReplayApplied, res.ReplayTarget = st.ReplayProgress()
	}
	status := http.StatusOK
	if !res.Ready || hs == healthDraining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, res)
}

// limited caps the request body at maxBody bytes; decodeBody turns the
// cap violation into a 413.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.maxBody > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		h(w, r)
	}
}

// decodeBody decodes the JSON request body into v, writing the
// appropriate error response (413 for an oversized body, 400 for
// malformed JSON) and reporting whether decoding succeeded.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// recordPayload carries one record, either positional (values) or named
// (record); named form fills unmentioned attributes with "".
type recordPayload struct {
	ID     *int              `json:"id,omitempty"`
	Values []string          `json:"values,omitempty"`
	Record map[string]string `json:"record,omitempty"`
}

// resolve turns the payload into positional values of rel.
func (p *recordPayload) resolve(rel *schema.Relation) ([]string, error) {
	switch {
	case p.Values != nil && p.Record != nil:
		return nil, fmt.Errorf("give either values or record, not both")
	case p.Values != nil:
		if len(p.Values) != rel.Arity() {
			return nil, fmt.Errorf("%s expects %d values, got %d", rel.Name(), rel.Arity(), len(p.Values))
		}
		return p.Values, nil
	case p.Record != nil:
		vals := make([]string, rel.Arity())
		for attr, v := range p.Record {
			i, ok := rel.Index(attr)
			if !ok {
				return nil, fmt.Errorf("%s has no attribute %q", rel.Name(), attr)
			}
			vals[i] = v
		}
		return vals, nil
	default:
		return nil, fmt.Errorf("missing values or record")
	}
}

// matchPayload is the /match request: one record, or a batch.
type matchPayload struct {
	recordPayload
	Batch []recordPayload `json:"batch,omitempty"`
}

type matchResponse struct {
	Matches    []int `json:"matches"`
	Candidates int   `json:"candidates"`
	Compared   int   `json:"compared"`
}

func toMatchResponse(res engine.Result) matchResponse {
	matches := res.Matches
	if matches == nil {
		matches = []int{}
	}
	return matchResponse{Matches: matches, Candidates: res.Candidates, Compared: res.Compared}
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var p matchPayload
	if !s.decodeBody(w, r, &p) {
		return
	}
	explain := wantExplain(r)
	if p.Batch != nil {
		if explain {
			writeError(w, http.StatusBadRequest, fmt.Errorf("explain supports a single record, not a batch"))
			return
		}
		if p.Values != nil || p.Record != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("give either batch or a single record, not both"))
			return
		}
		batch := make([][]string, len(p.Batch))
		for i := range p.Batch {
			vals, err := p.Batch[i].resolve(s.ctx.Right)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("batch[%d]: %w", i, err))
				return
			}
			batch[i] = vals
		}
		// The request context rides into the worker pool: when the client
		// hangs up mid-batch, the pool stops claiming queries instead of
		// matching the remainder for nobody.
		results, err := s.eng.MatchBatchCtx(r.Context(), batch)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nobody to answer
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		out := make([]matchResponse, len(results))
		for i, res := range results {
			out[i] = toMatchResponse(res)
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
		return
	}
	vals, err := p.resolve(s.ctx.Right)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if explain {
		ex, err := s.eng.MatchExplainCtx(r.Context(), vals)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nobody to answer
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, ex)
		return
	}
	res, err := s.eng.MatchOneCtx(r.Context(), vals)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody to answer
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, toMatchResponse(res))
}

func (s *server) handleAddRecord(w http.ResponseWriter, r *http.Request) {
	var p recordPayload
	if !s.decodeBody(w, r, &p) {
		return
	}
	vals, err := p.resolve(s.ctx.Left)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var id int
	if p.ID != nil {
		id = *p.ID
		// Keep the allocator ahead of explicit ids.
		for {
			cur := s.nextID.Load()
			if int64(id) <= cur || s.nextID.CompareAndSwap(cur, int64(id)) {
				break
			}
		}
	} else {
		id = int(s.nextID.Add(1))
	}
	ctx := r.Context()
	var ex *stream.Explain
	if wantExplain(r) {
		ex = stream.NewExplain(len(s.eng.Stream().Sigma()))
		ctx = stream.WithTraceSink(ctx, ex)
	}
	res, err := s.eng.AddClusteredCtx(ctx, id, vals)
	if err != nil {
		// A journal failure flips the daemon to read-only serving: the
		// record was valid but could not be made durable, and the store
		// refuses every later append anyway — reads keep answering, the
		// client gets 503 + Retry-After against a recovered process.
		if s.degradeOnJournalFailure(ctx, w, err) {
			return
		}
		if r.Context().Err() != nil {
			return // client gone before the insert was journaled
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	applied := res.AppliedMDs
	if applied == nil {
		applied = []int{}
	}
	writeJSON(w, http.StatusOK, addResponse{
		ID:           id,
		Cluster:      res.Cluster,
		AppliedMDs:   applied,
		Applications: res.Applications,
		Passes:       res.Passes,
		Explain:      ex,
	})
}

// addResponse reports an ingested record: its id, the dedup cluster
// enforcement put it in, and the chase work its arrival caused. With
// ?explain=1, Explain carries the full chase provenance — the per-rule
// candidate funnel and the firing sequence with cell-level before/after
// values, in firing order.
type addResponse struct {
	ID           int             `json:"id"`
	Cluster      int             `json:"cluster"`
	AppliedMDs   []int           `json:"applied_mds"`
	Applications int             `json:"applications"`
	Passes       int             `json:"passes"`
	Explain      *stream.Explain `json:"explain,omitempty"`
}

// clusterResponse reports a record's cluster and its current (resolved)
// values: enforcement may have grown them since ingestion. With
// ?explain=1, Trail lists the committed identity-rule links that built
// the cluster, in commit order (rule -1 = restored from a snapshot).
type clusterResponse struct {
	Cluster int                `json:"cluster"`
	Size    int                `json:"size"`
	Members []int              `json:"members"`
	Record  map[string]string  `json:"record"`
	Trail   []stream.LinkEvent `json:"trail,omitempty"`
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	enf := s.eng.Stream()
	cl, ok := enf.ClusterOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no record %d", id))
		return
	}
	vals, _ := enf.Record(id)
	rec := make(map[string]string, len(vals))
	for i, name := range enf.Relation().AttrNames() {
		rec[name] = vals[i]
	}
	resp := clusterResponse{
		Cluster: cl.ID, Size: len(cl.Members), Members: cl.Members, Record: rec,
	}
	if wantExplain(r) {
		resp.Trail, _ = enf.ClusterTrail(id)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleDeleteRecord(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad id: %w", err))
		return
	}
	removed, err := s.eng.RemoveLogged(id)
	if err != nil {
		// A failed removal journal is the same latched WAL failure as a
		// failed insert journal: flip read-only and say so.
		s.enterDegraded(r.Context(), err)
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("durability failed; serving read-only: journaling removal: %v", err))
		return
	}
	if !removed {
		writeError(w, http.StatusNotFound, fmt.Errorf("no record %d", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"removed": id})
}

// snapshotResponse reports an on-demand snapshot.
type snapshotResponse struct {
	LSN          uint64 `json:"lsn"`
	SnapshotLSN  uint64 `json:"snapshot_lsn"`
	WALBytesLeft int64  `json:"wal_bytes_since_snapshot"`
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.store()
	if st == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no data directory configured (-data-dir)"))
		return
	}
	lsn, err := s.eng.SnapshotCtx(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		LSN: lsn, SnapshotLSN: st.SnapshotLSN(), WALBytesLeft: st.BytesSinceSnapshot(),
	})
}

// storeStats is the /stats durability section.
type storeStats struct {
	Dir                   string `json:"dir"`
	LSN                   uint64 `json:"lsn"`
	SnapshotLSN           uint64 `json:"snapshot_lsn"`
	WALBytesSinceSnapshot int64  `json:"wal_bytes_since_snapshot"`
}

type statsResponse struct {
	engine.Stats
	ReductionRatio float64      `json:"reduction_ratio"`
	Plan           string       `json:"plan"`
	Workers        int          `json:"workers"`
	UptimeSeconds  float64      `json:"uptime_seconds"`
	Health         string       `json:"health"`
	Stream         stream.Stats `json:"stream"`
	Store          *storeStats  `json:"store,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	resp := statsResponse{
		Stats:          st,
		ReductionRatio: st.ReductionRatio(),
		Plan:           s.eng.Plan().String(),
		Workers:        s.eng.Workers(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Health:         s.healthState().String(),
		Stream:         s.eng.Stream().Stats(),
	}
	if ds := s.store(); ds != nil {
		resp.Store = &storeStats{
			Dir:                   ds.Dir(),
			LSN:                   ds.LSN(),
			SnapshotLSN:           ds.SnapshotLSN(),
			WALBytesSinceSnapshot: ds.BytesSinceSnapshot(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "err", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
