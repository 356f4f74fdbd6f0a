// Package stream is the incremental enforcement subsystem: the chase of
// Section 3.1 turned from a batch computation over a static instance
// into an online process over a growing one.
//
// A batch chase (internal/semantics.Enforce) rebuilds its entire world
// per call — dictionaries, verdict caches, blocking joins, the cell
// union-find — and rescans every candidate pair. Under write traffic
// that is wasted work: inserting one record into a stable instance can
// only enable rules on pairs that involve the new record, or pairs its
// firings transitively touch. The Enforcer therefore keeps the chase
// state alive across insertions:
//
//   - the interned value store persists: per-column-group values.Dict
//     dictionaries keep growing, conjunct verdicts accumulate in
//     growable values.Cache memos (map backend — the value universe is
//     no longer fixed, so the batch chase's 2-bit matrices do not
//     apply), and the instance stays dictionary-encoded in a
//     values.Columns view;
//   - each rule's blocking-style join indexes over its hash-encodable
//     conjuncts persist, maintained under the chase's touch callback;
//   - the cell union-find persists and grows by one row of cells per
//     insert;
//   - a record-level union-find (the cluster store) accumulates which
//     records have matched some rule's LHS — the paper's reading of MDs
//     as matching rules — so "which cluster is this record in" is a
//     constant-time query.
//
// Insert seeds the worklist frontier with only the pairs the new
// record's join keys touch (full row/column for rules without
// encodable conjuncts) and then runs the exact worklist chase of
// internal/semantics/worklist.go to a new fixpoint.
//
// # Equivalence contract
//
// Online enforcement is ORDER-SENSITIVE: enforcing as records arrive is
// not the same function as batch-enforcing the final dataset, because
// the chase matches rules against current (already resolved) values,
// and value resolution is not monotone under the similarity operators
// (a grown value can fail a threshold its original passed, and vice
// versa). TestStreamNotConfluentWithBatch pins a concrete instance of
// this divergence. The precise guarantees, both property-tested against
// the frozen seed chase (internal/semantics/seedref):
//
//   - Per insertion: if S is the Enforcer's stable instance and r the
//     new record, the state after Insert(r) — instance, per-insert
//     Applications and Passes, cluster links — is bit-identical to a
//     from-scratch Enforce on the dataset S ∪ {r}. Inductively, after
//     any insertion sequence the Enforcer's state is exactly the
//     left-fold of from-scratch chases over that sequence.
//   - Per batch: InsertBatch(rows) with the instance in state S is
//     bit-identical to a from-scratch Enforce on S ∪ rows. In
//     particular, InsertBatch on an EMPTY Enforcer reproduces the batch
//     chase on the whole dataset exactly — applications, passes, final
//     instance and clusters.
//
// The argument is the worklist argument: S is stable, so no pair of old
// records can fire until a firing touches one of its tuples on a column
// the rule reads or writes; every such touch re-enters the frontier.
// Both loops therefore visit a superset of the pairs that can fire, in
// the same order, and decide each visit from current state alone.
//
// The package supports self-match (deduplication) contexts only: one
// relation matched against itself, which is the shape of a streaming
// ingest workload. Two-table streaming would need a second frontier per
// side but no new ideas.
package stream

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mdmatch/internal/core"
	"mdmatch/internal/metrics"
	"mdmatch/internal/par"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/trace"
	"mdmatch/internal/values"
)

// InsertResult reports what one insertion did.
type InsertResult struct {
	// ID is the record's tuple id in the maintained instance.
	ID int
	// Cluster is the record's cluster id after enforcement: the smallest
	// record id in its cluster (a singleton record is its own cluster).
	Cluster int
	// AppliedMDs lists the indices into Σ of the rules that fired during
	// this insertion, ascending, deduplicated.
	AppliedMDs []int
	// Applications and Passes are the chase counters of this insertion:
	// rule firings, and rule rounds including the fixpoint-confirming
	// round. They equal what a from-scratch Enforce on (stable instance
	// ∪ new record) reports.
	Applications int
	Passes       int
}

// BatchResult reports what one InsertBatch did. The chase counters are
// batch-level: the rows are enforced together, in one chase.
type BatchResult struct {
	// IDs are the tuple ids assigned to the batch rows, in input order.
	IDs []int
	// AppliedMDs, Applications, Passes: as in InsertResult, for the
	// whole batch chase.
	AppliedMDs   []int
	Applications int
	Passes       int
}

// Cluster describes one record cluster.
type Cluster struct {
	// ID is the cluster id: the smallest record id of the cluster.
	ID int
	// Members are the record ids of the cluster, ascending.
	Members []int
}

// Stats is a snapshot of the Enforcer's cumulative counters.
type Stats struct {
	// Records is the number of records in the maintained instance.
	Records int `json:"records"`
	// Clusters is the number of clusters (including singletons).
	Clusters int `json:"clusters"`
	// Inserts counts Insert calls; Batches counts InsertBatch calls.
	Inserts int `json:"inserts"`
	Batches int `json:"batches"`
	// Applications and Passes are summed over all insertions.
	Applications int `json:"applications"`
	Passes       int `json:"passes"`
	// Chase counts the work done across all insertions: candidate pairs
	// examined, actual similarity-operator evaluations (verdict-cache
	// misses), rule firings.
	Chase metrics.ChaseStats `json:"chase"`
}

// RuleStat is one rule's cumulative enforcement telemetry.
type RuleStat struct {
	// Examined counts candidate pairs visited for this rule.
	Examined int64 `json:"examined"`
	// Matched counts visits where the rule's LHS held (the paper's
	// "the records match by this rule").
	Matched int64 `json:"matched"`
	// Fired counts LHS matches that identified unequal RHS cells (chase
	// applications attributed to this rule).
	Fired int64 `json:"fired"`
}

// Observer receives per-insertion measurements. A nil observer (the
// default) costs nothing. Calls are made under the enforcer's insertion
// lock, in serialization order; implementations must be fast and must
// not call back into the Enforcer. An observer that additionally
// implements AttachStream(*Enforcer) is handed the enforcer at
// construction for scrape-time views over Stats/RuleStats/CacheStats.
type Observer interface {
	// InsertObserved reports one Insert: wall latency, the chase rounds
	// and firings it took, and the candidate pairs its frontier visited.
	InsertObserved(seconds float64, passes, applications int, pairsExamined int64)
	// BatchObserved reports one InsertBatch (one chase over rows records).
	BatchObserved(seconds float64, rows, passes, applications int)
}

// WithObserver attaches an instrumentation observer; nil disables.
func WithObserver(o Observer) Option {
	return func(e *Enforcer) error {
		e.obs = o
		return nil
	}
}

// WithLogger attaches a structured logger; nil (the default) disables.
// The enforcer emits one debug-level line per insertion carrying the
// request id threaded through the context (trace.WithRequestID), so an
// id can be followed from the HTTP layer through enforcement into the
// journal. At levels above debug the cost is one Enabled check.
func WithLogger(l *slog.Logger) Option {
	return func(e *Enforcer) error {
		e.logger = l
		return nil
	}
}

// Enforcer is the incremental enforcement engine. All methods are safe
// for concurrent use; insertions serialize on an internal lock, and the
// enforcement outcome is the left-fold of per-insert chases in that
// serialization order (see the package comment for why order matters).
type Enforcer struct {
	mu    sync.Mutex
	ctx   schema.Pair
	sigma []core.MD

	inst *record.Instance
	d    *record.PairInstance

	cols  *values.Columns
	conjs map[conjKey]*values.Cache

	ch       *chase
	clusters *clusterStore
	rules    []*ruleState
	rowByID  map[int]int
	journal  Journal      // nil when the enforcer is not durable
	obs      Observer     // nil when not instrumented
	logger   *slog.Logger // nil when not logging
	sink     TraceSink    // the current insertion's provenance sink (usually nil)
	links    []LinkEvent  // committed cluster-merge provenance, in commit order

	// scan-local state of the rule currently being scanned (the
	// sorted-base + overflow-heap frontier of the worklist chase).
	scanning     *ruleState
	base         []int64
	baseIdx      int
	over         *pairHeap
	overSet      map[int64]struct{}
	curOrd       int64
	ordScratch   []int64
	bitsL, bitsR []bool // dense sweep mode: side membership filters

	applied []int // rule indices fired during the current insertion

	// workers is the per-rule fan-out of seedIndexes on multi-row
	// batches (WithWorkers).
	workers int

	// pending counts insert operations in flight (queued on the
	// insertion lock or chasing); a service's admission control reads it
	// as the write-side queue depth.
	pending atomic.Int64

	stats     Stats
	prevEvals int64 // operator evaluations already attributed to stats
}

// QueueDepth returns the number of insert operations currently in
// flight: waiting on the insertion lock or running their chase. It is
// the write-side backlog an admission controller sheds load against.
func (e *Enforcer) QueueDepth() int {
	return int(e.pending.Load())
}

// Option configures an Enforcer.
type Option func(*Enforcer) error

// ClusterRules restricts cluster linking to the given Σ indices: only a
// match of one of these rules identifies two records' clusters. Every
// rule still enforces its RHS — the distinction is the paper's own
// two-level structure: MDs identify ATTRIBUTE values, while record
// identity is decided by designated key rules relative to a target.
// Without this option every rule links, which over-merges when Σ
// contains attribute-repair rules (e.g. "same zip and similar street
// identify city and county" matches neighbors, not duplicates).
func ClusterRules(indices ...int) Option {
	return func(e *Enforcer) error {
		for _, r := range e.rules {
			r.link = false
		}
		for _, i := range indices {
			if i < 0 || i >= len(e.rules) {
				return fmt.Errorf("stream: cluster rule index %d out of range (Σ has %d rules)", i, len(e.rules))
			}
			e.rules[i].link = true
		}
		return nil
	}
}

// New builds an Enforcer for a self-match context: ctx.Left and
// ctx.Right must be the same relation. The rules are validated and
// compiled once; the instance starts empty.
func New(ctx schema.Pair, sigma []core.MD, opts ...Option) (*Enforcer, error) {
	if ctx.Left != ctx.Right {
		return nil, fmt.Errorf("stream: enforcer requires a self-match context, got (%s, %s)",
			ctx.Left.Name(), ctx.Right.Name())
	}
	e := &Enforcer{ctx: ctx, sigma: slices.Clone(sigma), workers: 1}
	e.inst = record.NewInstance(ctx.Left)
	var err error
	e.d, err = record.NewPairInstance(ctx, e.inst, e.inst)
	if err != nil {
		return nil, err
	}
	if err := e.compile(); err != nil {
		return nil, err
	}
	e.ch = newChase(ctx.Left.Arity())
	e.ch.onTouch = e.touched
	e.clusters = newClusterStore()
	e.rowByID = make(map[int]int)
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if a, ok := e.obs.(interface{ AttachStream(*Enforcer) }); ok {
		a.AttachStream(e)
	}
	return e, nil
}

// Relation returns the relation the Enforcer deduplicates.
func (e *Enforcer) Relation() *schema.Relation { return e.ctx.Left }

// Sigma returns the enforced rules (callers must not mutate).
func (e *Enforcer) Sigma() []core.MD { return e.sigma }

// Len returns the number of records in the maintained instance.
func (e *Enforcer) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inst.Len()
}

// Insert appends one record with the given tuple id and positional
// values and enforces Σ to a new fixpoint. The values slice is not
// retained. Inserting an existing id is an error (enforcement cannot be
// undone, so records cannot be replaced).
func (e *Enforcer) Insert(id int, vals []string) (InsertResult, error) {
	return e.InsertCtx(context.Background(), id, vals)
}

// InsertCtx is Insert with cancellation. Cancellation is honored only
// BEFORE the record is journaled and the chase starts — at entry and
// after the insertion lock is acquired (where a request can have sat
// queued for a while). Once the chase runs the insert always completes:
// aborting a chase mid-fixpoint would leave enforcement state that no
// WAL replay reproduces, so "cancel" past that point would be unsound,
// and the chase itself is short (it is one insert's worth of work).
func (e *Enforcer) InsertCtx(ctx context.Context, id int, vals []string) (InsertResult, error) {
	var start time.Time
	if e.obs != nil {
		start = time.Now() // before the lock: queueing is part of latency
	}
	ctx, sp := trace.StartSpan(ctx, "stream.insert")
	defer sp.End()
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return InsertResult{}, err
		}
	}
	e.pending.Add(1)
	defer e.pending.Add(-1)
	e.mu.Lock()
	defer e.mu.Unlock()
	// The abandoned-request check: the lock wait is where a doomed
	// insert burns time, and nothing has been journaled or mutated yet.
	if cancellable {
		if err := ctx.Err(); err != nil {
			return InsertResult{}, err
		}
	}
	// Validate before journaling: the WAL must hold exactly the
	// insertions that succeed, in enforcement order.
	if got, want := len(vals), e.ctx.Left.Arity(); got != want {
		return InsertResult{}, fmt.Errorf("stream: %s expects %d values, got %d for id %d",
			e.ctx.Left.Name(), want, got, id)
	}
	if _, dup := e.rowByID[id]; dup {
		return InsertResult{}, fmt.Errorf("stream: duplicate record id %d", id)
	}
	if e.journal != nil {
		if err := e.logInsert(ctx, id, vals); err != nil {
			return InsertResult{}, &JournalError{Err: fmt.Errorf("insert %d: %w", id, err)}
		}
	}
	row, err := e.append(id, vals)
	if err != nil {
		return InsertResult{}, err // unreachable: validated above
	}
	e.sink = sinkFrom(ctx)
	defer func() { e.sink = nil }()
	e.seedRow(row)
	e.ch.reset()
	pairsBefore := e.stats.Chase.PairsExamined
	apps, passes, err := e.run()
	if err != nil {
		return InsertResult{}, err
	}
	e.stats.Inserts++
	if e.obs != nil {
		e.obs.InsertObserved(time.Since(start).Seconds(), passes, apps,
			e.stats.Chase.PairsExamined-pairsBefore)
	}
	sp.AttrInt("passes", int64(passes))
	sp.AttrInt("applications", int64(apps))
	if e.logger != nil && e.logger.Enabled(ctx, slog.LevelDebug) {
		e.logger.LogAttrs(ctx, slog.LevelDebug, "stream insert",
			slog.String("request_id", trace.RequestID(ctx)),
			slog.Int("id", id),
			slog.Int("applications", apps),
			slog.Int("passes", passes),
		)
	}
	return InsertResult{
		ID:           id,
		Cluster:      e.clusters.clusterID(row),
		AppliedMDs:   e.takeApplied(),
		Applications: apps,
		Passes:       passes,
	}, nil
}

// logInsert journals one insert, preferring the context-aware journal
// (store.CtxJournal) so the WAL append inherits the request's trace
// span and request id.
func (e *Enforcer) logInsert(ctx context.Context, id int, vals []string) error {
	if cj, ok := e.journal.(CtxJournal); ok {
		return cj.LogInsertCtx(ctx, id, vals)
	}
	return e.journal.LogInsert(id, vals)
}

// logBatch is logInsert for batches.
func (e *Enforcer) logBatch(ctx context.Context, in *record.Instance) error {
	if cj, ok := e.journal.(CtxJournal); ok {
		return cj.LogBatchCtx(ctx, in)
	}
	return e.journal.LogBatch(in)
}

// InsertTuple is Insert for a record.Tuple.
func (e *Enforcer) InsertTuple(t *record.Tuple) (InsertResult, error) {
	return e.Insert(t.ID, t.Values)
}

// InsertBatch appends every tuple of in (which must be over the
// Enforcer's relation, with ids disjoint from the instance) and
// enforces Σ once over the whole batch: one chase, bit-identical to a
// from-scratch Enforce on (current instance ∪ batch). On an empty
// Enforcer this reproduces the batch chase on in exactly. The rows are
// interned straight into the columnar store before the chase runs.
func (e *Enforcer) InsertBatch(in *record.Instance) (BatchResult, error) {
	return e.InsertBatchCtx(context.Background(), in)
}

// InsertBatchCtx is InsertBatch with cancellation, honored at the same
// two points as InsertCtx: entry and lock acquisition, never once the
// batch is journaled.
func (e *Enforcer) InsertBatchCtx(ctx context.Context, in *record.Instance) (BatchResult, error) {
	if in.Rel != e.ctx.Left {
		return BatchResult{}, fmt.Errorf("stream: instance is over %s, enforcer expects %s",
			in.Rel.Name(), e.ctx.Left.Name())
	}
	var start time.Time
	if e.obs != nil {
		start = time.Now()
	}
	ctx, sp := trace.StartSpan(ctx, "stream.insert_batch")
	defer sp.End()
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return BatchResult{}, err
		}
	}
	e.pending.Add(1)
	defer e.pending.Add(-1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cancellable {
		if err := ctx.Err(); err != nil {
			return BatchResult{}, err
		}
	}
	// Validate the whole batch before mutating anything: a mid-batch
	// failure must not leave rows appended and seeded but never chased
	// (that would silently break the per-insertion equivalence contract
	// for the NEXT insert, which would consume their leftover frontier).
	arity := e.ctx.Left.Arity()
	batchIDs := make(map[int]struct{}, in.Len())
	for _, t := range in.Tuples {
		if len(t.Values) != arity {
			return BatchResult{}, fmt.Errorf("stream: %s expects %d values, got %d for id %d",
				e.ctx.Left.Name(), arity, len(t.Values), t.ID)
		}
		if _, dup := e.rowByID[t.ID]; dup {
			return BatchResult{}, fmt.Errorf("stream: duplicate record id %d", t.ID)
		}
		if _, dup := batchIDs[t.ID]; dup {
			return BatchResult{}, fmt.Errorf("stream: duplicate record id %d within batch", t.ID)
		}
		batchIDs[t.ID] = struct{}{}
	}
	if e.journal != nil {
		if err := e.logBatch(ctx, in); err != nil {
			return BatchResult{}, &JournalError{Err: fmt.Errorf("batch of %d: %w", in.Len(), err)}
		}
	}
	e.sink = sinkFrom(ctx)
	defer func() { e.sink = nil }()
	res := BatchResult{IDs: make([]int, 0, in.Len())}
	firstRow := e.inst.Len()
	for _, t := range in.Tuples {
		row, err := e.appendRowCore(t.ID, t.Values)
		if err != nil {
			return BatchResult{}, err // unreachable: the batch was validated
		}
		e.seedRow(row)
		res.IDs = append(res.IDs, t.ID)
	}
	e.seedIndexes(firstRow)
	e.ch.reset()
	apps, passes, err := e.run()
	if err != nil {
		return BatchResult{}, err
	}
	e.stats.Batches++
	res.AppliedMDs = e.takeApplied()
	res.Applications = apps
	res.Passes = passes
	if e.obs != nil {
		e.obs.BatchObserved(time.Since(start).Seconds(), in.Len(), passes, apps)
	}
	sp.AttrInt("rows", int64(in.Len()))
	sp.AttrInt("passes", int64(passes))
	sp.AttrInt("applications", int64(apps))
	if e.logger != nil && e.logger.Enabled(ctx, slog.LevelDebug) {
		e.logger.LogAttrs(ctx, slog.LevelDebug, "stream insert batch",
			slog.String("request_id", trace.RequestID(ctx)),
			slog.Int("rows", in.Len()),
			slog.Int("applications", apps),
			slog.Int("passes", passes),
		)
	}
	return res, nil
}

// Record returns the current (resolved) values of a record.
func (e *Enforcer) Record(id int) ([]string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.inst.ByID(id)
	if !ok {
		return nil, false
	}
	return slices.Clone(t.Values), true
}

// ClusterOf returns the cluster of a record.
func (e *Enforcer) ClusterOf(id int) (Cluster, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	row, ok := e.rowByID[id]
	if !ok {
		return Cluster{}, false
	}
	return Cluster{ID: e.clusters.clusterID(row), Members: e.clusters.members(row)}, true
}

// Clusters returns every cluster, ordered by cluster id. Singleton
// records are singleton clusters.
func (e *Enforcer) Clusters() []Cluster {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clusters.all()
}

// Instance returns the maintained stable instance. It is live: callers
// must treat it as read-only and must not hold it across insertions.
func (e *Enforcer) Instance() *record.Instance { return e.inst }

// Stats returns a snapshot of the cumulative counters.
func (e *Enforcer) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Records = e.inst.Len()
	st.Clusters = e.clusters.count
	return st
}

// RuleStats returns per-rule cumulative telemetry, indexed like Σ. The
// counters are kept out of Stats so recovery-equivalence checks on the
// aggregate snapshot stay byte-comparable.
func (e *Enforcer) RuleStats() []RuleStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStat, len(e.rules))
	for i, r := range e.rules {
		out[i] = RuleStat{Examined: r.examined, Matched: r.matched, Fired: r.fired}
	}
	return out
}

// CacheStats returns the cumulative verdict-cache traffic across every
// similarity conjunct: lookups, and the misses that evaluated their
// operator. Misses equal Stats().Chase.LHSEvaluations; like it, they
// are excluded from recovery equivalence (caches rebuild cold).
func (e *Enforcer) CacheStats() (lookups, misses int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conjs {
		lookups += c.Lookups()
		misses += c.Evaluations()
	}
	return lookups, misses
}

// append adds one record everywhere growth happens: the instance, the
// columnar interned view, the cell union-find, the cluster store, every
// rule's join indexes and dirty frontier. Batch callers append all row
// cores first and seed the indexes once (see InsertBatch).
func (e *Enforcer) append(id int, vals []string) (int, error) {
	row, err := e.appendRowCore(id, vals)
	if err != nil {
		return 0, err
	}
	e.seedIndexes(row)
	return row, nil
}

// appendRowCore grows the shared per-row state: instance, columnar
// view, cell union-find, cluster store.
func (e *Enforcer) appendRowCore(id int, vals []string) (int, error) {
	t, err := e.inst.AppendWithID(id, vals)
	if err != nil {
		return 0, err
	}
	row := e.inst.Len() - 1
	e.rowByID[id] = row
	e.cols.AppendRow(t.Values)
	e.ch.appendRow(t)
	e.clusters.add(id)
	return row, nil
}

// WithWorkers sets how many goroutines seedIndexes fans a multi-row
// batch's join-index seeding out to; n <= 0 selects GOMAXPROCS. The
// default is 1. The chase itself is always serial, so every outcome —
// instance, clusters, counters, provenance — is identical at any count.
func WithWorkers(n int) Option {
	return func(e *Enforcer) error {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		e.workers = n
		return nil
	}
}

// seedIndexes re-aliases every rule's id slices (AppendRow may have
// reallocated the column slices) and adds rows firstRow.. to the
// blockable rules' join indexes. Rules are mutually independent, so a
// multi-row batch fans out across rules when workers are configured —
// each worker touches only its rules' indexes, and per-rule adds stay
// in row order, so bucket membership is identical at any worker count.
// Soundex codes are assigned first, in dictionary order, so workers
// never race on a dictionary's first-use code assignment (the codes'
// numbering, and with it the uint64 join keys, can differ from the
// serial first-use order; which rows share a bucket cannot).
func (e *Enforcer) seedIndexes(firstRow int) {
	n := e.inst.Len()
	workers := 1
	if e.workers > 1 && n-firstRow > 1 {
		for _, r := range e.rules {
			for _, s := range r.seeds {
				if s.sdx {
					s.dict.WarmSoundex()
				}
			}
		}
		workers = e.workers
	}
	par.For(len(e.rules), workers, func(k int) {
		r := e.rules[k]
		r.refresh(e)
		if !r.blockable() {
			return
		}
		for row := firstRow; row < n; row++ {
			r.idxL.add(row, r.key(0, row))
			r.idxR.add(row, r.key(1, row))
		}
	})
}

// seedRow marks a new row dirty on both sides for every rule: the
// worklist frontier starts at exactly the pairs involving the new
// record (its blocking-key joins for blockable rules, its row and
// column for dense rules).
func (e *Enforcer) seedRow(row int) {
	for _, r := range e.rules {
		r.dirtyL[row] = struct{}{}
		r.dirtyR[row] = struct{}{}
	}
}

// takeApplied returns the rule indices fired since the last call,
// sorted and deduplicated.
func (e *Enforcer) takeApplied() []int {
	if len(e.applied) == 0 {
		return nil
	}
	slices.Sort(e.applied)
	out := slices.Clone(slices.Compact(e.applied))
	e.applied = e.applied[:0]
	return out
}

// run is the worklist pass loop: rules in Σ order within
// pass-structured rounds, until a full round fires nothing. It returns
// the applications and passes of this enforcement.
func (e *Enforcer) run() (apps, passes int, err error) {
	maxPasses := e.ch.cellCount() + 2
	startApps := e.stats.Applications
	for {
		passes++
		if passes > maxPasses {
			return 0, 0, fmt.Errorf("stream: chase exceeded %d passes (non-terminating value resolution?)", maxPasses)
		}
		fired := false
		for _, r := range e.rules {
			if e.scanRule(r) {
				fired = true
			}
		}
		if !fired {
			break
		}
	}
	e.stats.Passes += passes
	evals := e.operatorEvaluations()
	e.stats.Chase.LHSEvaluations += evals - e.prevEvals
	e.prevEvals = evals
	return e.stats.Applications - startApps, passes, nil
}

func (e *Enforcer) operatorEvaluations() int64 {
	var total int64
	for _, c := range e.conjs {
		total += c.Evaluations()
	}
	return total
}

// touched is the chase's write-back callback: refresh the interned cell
// id, widen every rule's dirty frontier on relevant columns, and
// re-enqueue pairs ahead of the current scan position.
func (e *Enforcer) touched(ti, ai int, v string) {
	// The chase only moves values between cells of one column group, so
	// the value is already interned in the shared dictionary.
	e.cols.SetKnown(ai, ti, v)
	for _, r := range e.rules {
		if r.relL[ai] {
			r.dirtyL[ti] = struct{}{}
		}
		if r.relR[ai] {
			r.dirtyR[ti] = struct{}{}
		}
	}
	s := e.scanning
	if s == nil {
		return
	}
	left, right := s.relL[ai], s.relR[ai]
	if !left && !right {
		return // the scanning rule's verdicts cannot have changed
	}
	if e.bitsL != nil { // dense sweep: widen the filters
		if left {
			e.bitsL[ti] = true
		}
		if right {
			e.bitsR[ti] = true
		}
		return
	}
	n := int64(e.inst.Len())
	if s.blockable() {
		// The touched tuple's join keys may have changed — refresh them,
		// then enqueue the pairs it now joins with.
		if left {
			s.idxL.set(ti, s.key(0, ti))
			for _, j := range s.idxR.buckets[s.idxL.keys[ti]] {
				e.push(int64(ti)*n + int64(j))
			}
		}
		if right {
			s.idxR.set(ti, s.key(1, ti))
			for _, i := range s.idxL.buckets[s.idxR.keys[ti]] {
				e.push(int64(i)*n + int64(ti))
			}
		}
		return
	}
	// Dense rule: the touched tuple's whole row/column re-qualifies.
	if left {
		o := int64(ti) * n
		for j := int64(0); j < n; j++ {
			e.push(o + j)
		}
	}
	if right {
		for i := int64(0); i < n; i++ {
			e.push(i*n + int64(ti))
		}
	}
}

// push enqueues a candidate pair into the current scan if it lies ahead
// of the scan position and is not already pending; pairs behind the
// position stay in the dirty frontier for the next pass.
func (e *Enforcer) push(ord int64) {
	if ord <= e.curOrd {
		return
	}
	if _, ok := slices.BinarySearch(e.base[e.baseIdx:], ord); ok {
		return
	}
	if _, ok := e.overSet[ord]; ok {
		return
	}
	e.overSet[ord] = struct{}{}
	heap.Push(e.over, ord)
}

// scanRule visits this round's candidates of one rule in ascending
// (left, right) order: the dirty frontier enumerated into a sorted
// slice, merged with a small overflow heap that only ever holds pairs
// mid-scan firings enqueued ahead of the position.
func (e *Enforcer) scanRule(r *ruleState) bool {
	n := int64(e.inst.Len())
	base := e.ordScratch[:0]
	if r.blockable() {
		// Keys of tuples touched since this rule's last scan are stale.
		for i := range r.dirtyL {
			r.idxL.set(i, r.key(0, i))
		}
		for j := range r.dirtyR {
			r.idxR.set(j, r.key(1, j))
		}
		for i := range r.dirtyL {
			o := int64(i) * n
			for _, j := range r.idxR.buckets[r.idxL.keys[i]] {
				base = append(base, o+int64(j))
			}
		}
		for j := range r.dirtyR {
			for _, i := range r.idxL.buckets[r.idxR.keys[j]] {
				base = append(base, int64(i)*n+int64(j))
			}
		}
	} else {
		// A dense rule's frontier is the dirty rows × everything plus
		// everything × dirty columns. Materializing the ord codes is
		// ideal for the per-insert case (a handful of dirty rows); when
		// the frontier is large — a batch load marks every row dirty —
		// fall back to the worklist's bit-filter sweep, which enumerates
		// the same pairs in the same order at O(rows) memory.
		if int64(len(r.dirtyL)+len(r.dirtyR))*n > denseMaterializeCap {
			e.ordScratch = base
			return e.scanDenseSweep(r, int(n))
		}
		for i := range r.dirtyL {
			o := int64(i) * n
			for j := int64(0); j < n; j++ {
				base = append(base, o+j)
			}
		}
		for j := range r.dirtyR {
			for i := int64(0); i < n; i++ {
				base = append(base, i*n+int64(j))
			}
		}
	}
	clear(r.dirtyL)
	clear(r.dirtyR)
	if len(base) == 0 {
		e.ordScratch = base
		return false
	}
	slices.Sort(base)
	base = slices.Compact(base) // left and right probes can overlap
	if e.sink != nil {
		e.sink.Candidates(r.idx, len(base))
	}
	var over pairHeap
	e.scanning = r
	e.base, e.baseIdx = base, 0
	e.over, e.overSet = &over, make(map[int64]struct{})
	e.curOrd = -1
	fired := false
	for {
		var ord int64
		switch {
		case e.baseIdx < len(e.base) && (over.Len() == 0 || e.base[e.baseIdx] < over[0]):
			ord = e.base[e.baseIdx]
			e.baseIdx++
		case over.Len() > 0:
			ord = heap.Pop(&over).(int64)
			delete(e.overSet, ord)
		default:
			e.ordScratch = base[:0]
			e.scanning = nil
			e.base, e.baseIdx = nil, 0
			e.over, e.overSet = nil, nil
			return fired
		}
		e.curOrd = ord
		if e.visit(r, int(ord/n), int(ord%n)) {
			fired = true
		}
	}
}

// denseMaterializeCap bounds the ord codes a dense scan materializes
// (8 MiB of int64) before switching to the bit-filter sweep. A var so
// the dense equivalence test can shrink it to exercise the sweep.
var denseMaterializeCap = int64(1) << 20

// scanDenseSweep visits a dense rule's candidates by sweeping the full
// grid with side membership filters, exactly like the batch worklist's
// filtered scan: the boolean check is orders of magnitude cheaper than
// a verdict lookup, and both filters are re-read per cell so mid-row
// touches widen the scan for the current row too.
func (e *Enforcer) scanDenseSweep(r *ruleState, n int) bool {
	e.scanning = r
	e.bitsL = make([]bool, n)
	e.bitsR = make([]bool, n)
	for i := range r.dirtyL {
		e.bitsL[i] = true
	}
	for j := range r.dirtyR {
		e.bitsR[j] = true
	}
	clear(r.dirtyL)
	clear(r.dirtyR)
	fired := false
	for i1 := 0; i1 < n; i1++ {
		if !e.bitsL[i1] {
			for i2 := 0; i2 < n; i2++ {
				if !e.bitsR[i2] && !e.bitsL[i1] {
					continue
				}
				if e.visit(r, i1, i2) {
					fired = true
				}
			}
			continue
		}
		for i2 := 0; i2 < n; i2++ {
			if e.visit(r, i1, i2) {
				fired = true
			}
		}
	}
	e.scanning = nil
	e.bitsL, e.bitsR = nil, nil
	return fired
}

// visit evaluates one candidate (rule, pair) and fires on a violation.
// The whole decision runs on interned ids; strings are only read on a
// verdict-cache miss. The effects — counters, cluster links, RHS
// identifications, provenance — are applied through the commit-point
// helpers in provenance.go.
func (e *Enforcer) visit(r *ruleState, i1, i2 int) bool {
	e.noteExamined(r)
	for ci := range r.lhs {
		c := &r.lhs[ci]
		switch c.kind {
		case kindEq:
			if c.lids[i1] != c.rids[i2] {
				return false
			}
		case kindSdx:
			if c.dict.SoundexID(c.lids[i1]) != c.dict.SoundexID(c.rids[i2]) {
				return false
			}
		default: // kindCached
			if !c.cache.Similar(c.lids[i1], c.rids[i2]) {
				return false
			}
		}
	}
	// The pair matches the rule's LHS: if the rule decides record
	// identity, the records are rule-matched (clusters link on matches,
	// not only on value-changing firings — an exact duplicate matches
	// every rule trivially yet fires none).
	e.noteMatched(r, i1, i2)
	e.linkPair(r, i1, i2)
	rhsEqual := true
	for ri := range r.rhs {
		if r.rhs[ri].lids[i1] != r.rhs[ri].rids[i2] {
			rhsEqual = false
			break
		}
	}
	if rhsEqual {
		return false
	}
	e.fire(r, i1, i2)
	return true
}
