package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mdmatch/internal/blocking"
	"mdmatch/internal/core"
	"mdmatch/internal/gen"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
)

// recOp is one mutation of a durable engine's history: an insert, a
// batch load, or a removal — the three ops the WAL records.
type recOp struct {
	kind string // "insert", "batch", "remove"
	id   int
	vals []string
	rows []*record.Tuple
}

func (o recOp) apply(t testing.TB, eng *Engine, rel *schema.Relation) {
	t.Helper()
	switch o.kind {
	case "insert":
		if _, err := eng.AddClustered(o.id, o.vals); err != nil {
			t.Fatal(err)
		}
	case "batch":
		in := record.NewInstance(rel)
		for _, tup := range o.rows {
			if _, err := in.AppendWithID(tup.ID, slices.Clone(tup.Values)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Load(in); err != nil {
			t.Fatal(err)
		}
	case "remove":
		if _, err := eng.RemoveLogged(o.id); err != nil {
			t.Fatal(err)
		}
	}
}

// recHistory builds a mixed op history over a shuffled generated
// corpus: one initial batch, then single inserts with removals
// sprinkled in (both of present and absent ids).
func recHistory(t testing.TB, k int, seed int64) (schema.Pair, []core.MD, []recOp) {
	t.Helper()
	cfg := gen.DefaultConfig(k)
	cfg.Seed = seed
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := schema.MustPair(ds.Credit.Rel, ds.Credit.Rel)
	tuples := slices.Clone(ds.Credit.Tuples)
	rng := rand.New(rand.NewSource(seed * 7919))
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })

	split := len(tuples) / 3
	ops := []recOp{{kind: "batch", rows: tuples[:split]}}
	for i, tup := range tuples[split:] {
		ops = append(ops, recOp{kind: "insert", id: tup.ID, vals: slices.Clone(tup.Values)})
		if i%5 == 2 {
			// Remove a record that exists (journaled) and one that does
			// not (a no-op that must not be journaled).
			ops = append(ops,
				recOp{kind: "remove", id: tuples[i%split].ID},
				recOp{kind: "remove", id: 1 << 30})
		}
	}
	return ctx, gen.DedupMDs(ctx), ops
}

// selfMatchPlan compiles a small serving plan over the self-match
// credit context: one equality key, one similarity key, two blocking
// keys (one Soundex-encoded) — enough to exercise interned rows,
// rendered keys and verdict caches through recovery.
func selfMatchPlan(t testing.TB, ctx schema.Pair) *Plan {
	t.Helper()
	target, err := core.NewTarget(ctx, ctx.Left.AttrNames(), ctx.Right.AttrNames())
	if err != nil {
		t.Fatal(err)
	}
	k1, err := core.NewKey(ctx, target, []core.Conjunct{core.Eq("cno", "cno")})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := core.NewKey(ctx, target, []core.Conjunct{
		core.C("ln", similarity.DL(0.8), "ln"), core.Eq("zip", "zip")})
	if err != nil {
		t.Fatal(err)
	}
	specs := []blocking.KeySpec{
		blocking.NewKeySpec(core.P("ln", "ln"), core.P("zip", "zip")).
			WithEncoder(0, blocking.SoundexEncode),
		blocking.NewKeySpec(core.P("cno", "cno")),
	}
	plan, err := Compile(ctx, []core.Key{k1, k2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// newDurable builds a fresh enforcer + durable engine over dir. extra
// options are appended to the enforcer's (e.g. stream.WithWorkers for
// the parallel-chase recovery variant).
func newDurable(t testing.TB, dir string, ctx schema.Pair, sigma []core.MD, plan *Plan, extra ...stream.Option) (*Engine, *store.Store) {
	t.Helper()
	opts := append([]stream.Option{stream.ClusterRules(gen.DedupClusterRules()...)}, extra...)
	enf, err := stream.New(ctx, sigma, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, Fingerprint(plan, enf), store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(plan, WithWorkers(2), WithStream(enf), WithStore(st))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return eng, st
}

// sameEngineState asserts the full observable state of two engines is
// identical: the enforcer's persistent state (instance rows, cluster
// memberships, dictionary contents in ID order, counters) and the match
// index (stored records, rendered blocking keys, match results). The
// one normalized counter is Chase.LHSEvaluations: it counts
// verdict-cache misses, and a recovered process rebuilds its caches
// cold, so its replay misses legitimately differ from the warm
// history's (the verdicts themselves are pure and identical).
func sameEngineState(t testing.TB, label string, got, want *Engine) {
	t.Helper()
	gs, ws := got.Stream().State(), want.Stream().State()
	gs.Stats.Chase.LHSEvaluations = 0
	ws.Stats.Chase.LHSEvaluations = 0
	if !reflect.DeepEqual(gs.Dicts, ws.Dicts) {
		t.Fatalf("%s: dictionaries diverged", label)
	}
	if !reflect.DeepEqual(gs.Rows, ws.Rows) {
		t.Fatalf("%s: instance rows diverged: %d vs %d rows", label, len(gs.Rows), len(ws.Rows))
	}
	if !reflect.DeepEqual(gs.Clusters, ws.Clusters) {
		t.Fatalf("%s: clusters diverged: %v vs %v", label, gs.Clusters, ws.Clusters)
	}
	if !reflect.DeepEqual(gs.Stats, ws.Stats) {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, gs.Stats, ws.Stats)
	}
	grecs, wrecs := got.dumpRecs(), want.dumpRecs()
	if !reflect.DeepEqual(grecs, wrecs) {
		t.Fatalf("%s: match-index records diverged (%d vs %d)", label, len(grecs), len(wrecs))
	}
	// Spot-check serving behavior on a few stored rows (self-match:
	// left rows are valid right-side queries).
	for i, rec := range wrecs {
		if i >= 5 {
			break
		}
		gr, err := got.MatchOne(rec.Values)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := want.MatchOne(rec.Values)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gr.Matches, wr.Matches) {
			t.Fatalf("%s: MatchOne = %v, want %v", label, gr.Matches, wr.Matches)
		}
	}
}

// TestRecoveryEquivalence is the load-bearing property of the store
// subsystem: for EVERY snapshot point i in an n-op history — including
// i=0 (replay-only) and i=n (snapshot-only) — recovering from
// snapshot@i plus the WAL suffix replayed in order is bit-identical to
// a fresh engine fed the same ops in the same order. Runs under -race
// in CI.
func TestRecoveryEquivalence(t *testing.T) {
	ctx, sigma, ops := recHistory(t, 12, 1)
	plan := selfMatchPlan(t, ctx)

	// The reference: the same history with no store attached.
	refEnf, err := stream.New(ctx, sigma, stream.ClusterRules(gen.DedupClusterRules()...))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(plan, WithWorkers(2), WithStream(refEnf))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		op.apply(t, ref, ctx.Left)
	}

	for i := 0; i <= len(ops); i++ {
		dir := t.TempDir()
		eng, st := newDurable(t, dir, ctx, sigma, plan)
		for _, op := range ops[:i] {
			op.apply(t, eng, ctx.Left)
		}
		if i > 0 {
			if _, err := eng.Snapshot(); err != nil {
				t.Fatalf("i=%d: snapshot: %v", i, err)
			}
		}
		for _, op := range ops[i:] {
			op.apply(t, eng, ctx.Left)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		label := fmt.Sprintf("i=%d/%d", i, len(ops))
		rec, st2 := newDurable(t, dir, ctx, sigma, plan)
		sameEngineState(t, label, rec, ref)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryEquivalenceParallelChase re-runs recovery equivalence
// with the enforcer's one parallel path, batch index seeding, enabled:
// the reference enforcer runs stream.WithWorkers(1), while the
// journaled engine AND the recovering engine (whose WAL replay
// re-enforces the history's opening batch and every insert) run
// stream.WithWorkers(4). A subset of cut points suffices — the full
// sweep is TestRecoveryEquivalence's job; this pins that seeding
// fan-out and replay are independent of the worker count.
func TestRecoveryEquivalenceParallelChase(t *testing.T) {
	ctx, sigma, ops := recHistory(t, 12, 1)
	plan := selfMatchPlan(t, ctx)

	refEnf, err := stream.New(ctx, sigma,
		stream.ClusterRules(gen.DedupClusterRules()...), stream.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(plan, WithWorkers(2), WithStream(refEnf))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		op.apply(t, ref, ctx.Left)
	}

	for _, i := range []int{0, len(ops) / 2, len(ops)} {
		dir := t.TempDir()
		eng, st := newDurable(t, dir, ctx, sigma, plan, stream.WithWorkers(4))
		for _, op := range ops[:i] {
			op.apply(t, eng, ctx.Left)
		}
		if i > 0 {
			if _, err := eng.Snapshot(); err != nil {
				t.Fatalf("i=%d: snapshot: %v", i, err)
			}
		}
		for _, op := range ops[i:] {
			op.apply(t, eng, ctx.Left)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		label := fmt.Sprintf("parallel i=%d/%d", i, len(ops))
		rec, st2 := newDurable(t, dir, ctx, sigma, plan, stream.WithWorkers(4))
		sameEngineState(t, label, rec, ref)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryAcrossMultipleSnapshots layers several snapshots into one
// history (exercising snapshot retention + segment GC on a live
// directory) and checks the final recovery, twice (recovering from a
// recovered directory must also be exact).
func TestRecoveryAcrossMultipleSnapshots(t *testing.T) {
	ctx, sigma, ops := recHistory(t, 15, 2)
	plan := selfMatchPlan(t, ctx)

	refEnf, err := stream.New(ctx, sigma, stream.ClusterRules(gen.DedupClusterRules()...))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(plan, WithStream(refEnf))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, st := newDurable(t, dir, ctx, sigma, plan)
	for i, op := range ops {
		op.apply(t, ref, ctx.Left)
		op.apply(t, eng, ctx.Left)
		if i%7 == 6 {
			if _, err := eng.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		rec, st2 := newDurable(t, dir, ctx, sigma, plan)
		sameEngineState(t, fmt.Sprintf("multi-snapshot round %d", round), rec, ref)
		if round == 1 {
			// Snapshot the recovered state so round 2 recovers from a
			// recovery's own snapshot.
			if _, err := rec.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRefusesForeignRules pins the fingerprint guard end to
// end: a data directory written under one rule configuration refuses to
// open under another (replaying inserts under different rules would
// silently produce a different chase).
func TestRecoveryRefusesForeignRules(t *testing.T) {
	ctx, sigma, ops := recHistory(t, 10, 3)
	plan := selfMatchPlan(t, ctx)
	dir := t.TempDir()
	eng, st := newDurable(t, dir, ctx, sigma, plan)
	ops[0].apply(t, eng, ctx.Left)
	if _, err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	enf, err := stream.New(ctx, sigma[:len(sigma)-1]) // one rule fewer
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, Fingerprint(plan, enf)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Open under different Σ = %v, want fingerprint refusal", err)
	}
}

// TestWithStoreValidation pins the construction contract: WithStore
// needs a stream enforcer, and the enforcer must not have pre-store
// history (those inserts were never journaled).
func TestWithStoreValidation(t *testing.T) {
	ctx, sigma, _ := recHistory(t, 10, 4)
	plan := selfMatchPlan(t, ctx)
	st, err := store.Open(t.TempDir(), Fingerprint(plan, nil), store.WithNoSync())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := New(plan, WithStore(st)); err == nil {
		t.Error("New accepted WithStore without WithStream")
	}
	enf, err := stream.New(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enf.Insert(1, make([]string, ctx.Left.Arity())); err != nil {
		t.Fatal(err)
	}
	if _, err := New(plan, WithStream(enf), WithStore(st)); err == nil {
		t.Error("New accepted an enforcer with unjournaled history")
	}
}

// TestSnapshotDuringConcurrentTraffic hammers a durable engine with
// concurrent MatchBatch queries, inserts, removals and snapshots (the
// shutdown-during-batch shape, exercised under -race), then verifies a
// recovery of the resulting directory reproduces the live engine's
// final state exactly.
func TestSnapshotDuringConcurrentTraffic(t *testing.T) {
	ctx, sigma, ops := recHistory(t, 15, 5)
	plan := selfMatchPlan(t, ctx)
	dir := t.TempDir()
	eng, st := newDurable(t, dir, ctx, sigma, plan)
	ops[0].apply(t, eng, ctx.Left) // warm batch

	batch := make([][]string, 0, 16)
	for _, tup := range ops[0].rows {
		batch = append(batch, tup.Values)
		if len(batch) == 16 {
			break
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, op := range ops[1:] {
			op.apply(t, eng, ctx.Left)
		}
	}()
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := eng.MatchBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := eng.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	<-queryDone
	// Final snapshot with everything drained, then recover and compare
	// against the live engine itself.
	if _, err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, st2 := newDurable(t, dir, ctx, sigma, plan)
	defer st2.Close()
	sameEngineState(t, "concurrent traffic", rec, eng)
}
