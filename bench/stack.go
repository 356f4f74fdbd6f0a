package main

import (
	"fmt"
	"time"

	"mdmatch/internal/blocking"
	"mdmatch/internal/core"
	"mdmatch/internal/engine"
	"mdmatch/internal/gen"
	"mdmatch/internal/schema"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
)

// stack is matchd's serving state rebuilt in-process: the reference the
// HTTP responses are checked against, and the object of the traced run.
type stack struct {
	ds   *gen.Dataset
	plan *engine.Plan
	enf  *stream.Enforcer // nil when built without the enforcer
	st   *store.Store     // nil when not durable
	eng  *engine.Engine
	rec  *streamRecorder

	// Build timings, each around one call into a layer.
	generateS float64 // gen.Generate
	findRCKsS float64 // core.FindRCKs + PruneSubsumed
	loadS     float64 // engine.Load (fresh) — includes the batch chase
	recoverS  float64 // engine.New on a non-empty store: snapshot load + replay
	recovered bool
}

// stackOpts selects how much of matchd's build() is mirrored.
type stackOpts struct {
	k int
	// withStream attaches the dedup enforcer (the base-corpus chase is
	// the bulk of the build); a match-only reference leaves it out — the
	// engine indexes the posted values either way, so /match answers are
	// identical.
	withStream bool
	// dataDir "" builds the in-memory stack; fs, when set, wraps the
	// store's filesystem (the timing/crash wrapper).
	dataDir string
	fs      store.FS
}

// buildStack mirrors cmd/matchd's (*server).build step for step — same
// corpus config, cost model, key count, blocking specs, enforcer
// options and store wiring, at the daemon's default worker counts — so
// its answers are the daemon's answers. Each call into a layer is
// timed.
func buildStack(o stackOpts) (*stack, error) {
	s := &stack{}
	cfg := gen.DefaultConfig(o.k)
	cfg.Seed = serverSeed
	t := time.Now()
	ds, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s.generateS = time.Since(t).Seconds()
	s.ds = ds

	target := gen.Target(ds.Ctx)
	sigma := gen.HolderMDs(ds.Ctx)
	cm := core.DefaultCostModel()
	cm.Lt = ds.LtStats()
	t = time.Now()
	keys, err := core.FindRCKs(ds.Ctx, sigma, target, serverM+4, cm)
	if err != nil {
		return nil, err
	}
	keys = core.PruneSubsumed(keys)
	s.findRCKsS = time.Since(t).Seconds()
	if len(keys) > serverM {
		keys = keys[:serverM]
	}
	specs := []blocking.KeySpec{
		blocking.NewKeySpec(core.P("ln", "ln"), core.P("zip", "zip")).
			WithEncoder(0, blocking.SoundexEncode),
		blocking.NewKeySpec(core.P("tel", "phn")),
		blocking.NewKeySpec(core.P("fn", "fn"), core.P("dob", "dob")).
			WithEncoder(0, blocking.SoundexEncode),
	}
	s.plan, err = engine.Compile(ds.Ctx, keys, specs)
	if err != nil {
		return nil, err
	}
	var opts []engine.Option
	if o.withStream {
		dedupCtx, err := schema.NewPair(ds.Credit.Rel, ds.Credit.Rel)
		if err != nil {
			return nil, err
		}
		s.rec = &streamRecorder{}
		s.enf, err = stream.New(dedupCtx, gen.DedupMDs(dedupCtx),
			stream.ClusterRules(gen.DedupClusterRules()...),
			stream.WithWorkers(0), stream.WithObserver(s.rec))
		if err != nil {
			return nil, err
		}
		opts = append(opts, engine.WithStream(s.enf))
	}
	if o.dataDir != "" {
		if s.enf == nil {
			return nil, fmt.Errorf("bench: a durable stack needs the enforcer")
		}
		var sopts []store.Option
		if o.fs != nil {
			sopts = append(sopts, store.WithFS(o.fs))
		}
		s.st, err = store.Open(o.dataDir, engine.Fingerprint(s.plan, s.enf), sopts...)
		if err != nil {
			return nil, err
		}
		opts = append(opts, engine.WithStore(s.st))
	}
	fresh := s.st == nil || s.st.Empty()
	t = time.Now()
	s.eng, err = engine.New(s.plan, opts...)
	if err != nil {
		s.close()
		return nil, err
	}
	if fresh {
		t = time.Now()
		if err := s.eng.Load(ds.Credit); err != nil {
			s.close()
			return nil, err
		}
		s.loadS = time.Since(t).Seconds()
	} else {
		s.recoverS = time.Since(t).Seconds()
		s.recovered = true
	}
	return s, nil
}

// close releases the store (a no-op for in-memory stacks).
func (s *stack) close() {
	if s.st != nil {
		_ = s.st.Close() // the data directory is scratch; nothing to report
		s.st = nil
	}
}

// streamRecorder is the harness's stream.Observer. It keeps the one
// measurement the enforcer hands to observers that no span carries:
// how long each batch chase (the base-corpus load) took. Per-insert
// times come from the stream.insert spans instead.
type streamRecorder struct{ batchS []float64 }

func (r *streamRecorder) InsertObserved(float64, int, int, int64) {}

func (r *streamRecorder) BatchObserved(seconds float64, _, _, _ int) {
	r.batchS = append(r.batchS, seconds)
}
