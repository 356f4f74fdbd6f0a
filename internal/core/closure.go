package core

import (
	"fmt"
	"maps"

	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// Closure is the array M of algorithm MDClosure (Figure 5): an h×h×p
// boolean array where h is the total number of columns of the two
// relations and p the number of distinct similarity operators (equality
// first). M(a, b, op) = 1 means that Σ ⊨m LHS(ϕ) → R[A] ≈op R'[B]: the
// two columns are provably similar (for op "=", provably identified) in
// every stable instance reached by enforcing Σ from an instance whose
// tuples match LHS(ϕ).
//
// Columns are dense ids from schema.Pair.Col: left-relation attributes
// first, then right-relation attributes; a and b may belong to the same
// relation (intra-relation facts arise from the interaction of the
// matching operator with equality and similarity, Lemma 3.4).
type Closure struct {
	ctx     schema.Pair
	h       int
	ops     []similarity.Operator // ops[0] is equality
	opIndex map[string]int
	m       []bool // (a*h + b)*p + op
}

const eqIdx = 0

func (c *Closure) at(a, b, op int) bool { return c.m[(a*c.h+b)*len(c.ops)+op] }
func (c *Closure) set(a, b, op int)     { c.m[(a*c.h+b)*len(c.ops)+op] = true }

// Ops returns the operator universe of the closure (equality first).
func (c *Closure) Ops() []similarity.Operator { return c.ops }

// Ctx returns the schema context.
func (c *Closure) Ctx() schema.Pair { return c.ctx }

// Similar reports whether M records R[a] ≈op R'[b] (directly or via the
// subsuming equality entry). Side/attr pairs may be on any side.
func (c *Closure) Similar(sa schema.Side, a string, sb schema.Side, b string, opName string) (bool, error) {
	ca, err := c.ctx.Col(sa, a)
	if err != nil {
		return false, err
	}
	cb, err := c.ctx.Col(sb, b)
	if err != nil {
		return false, err
	}
	op, ok := c.opIndex[opName]
	if !ok {
		return false, fmt.Errorf("core: operator %q not in closure universe", opName)
	}
	if c.at(ca, cb, eqIdx) {
		return true, nil
	}
	if op == eqIdx {
		return false, nil
	}
	return c.at(ca, cb, op), nil
}

// Identified reports whether M records R1[a] ⇌ R2[b] (i.e. the equality
// entry for the cross pair is set).
func (c *Closure) Identified(a, b string) (bool, error) {
	return c.Similar(schema.Left, a, schema.Right, b, similarity.EqName)
}

// IdentifiedPairs enumerates all cross-relation attribute pairs recorded
// as identified.
func (c *Closure) IdentifiedPairs() []AttrPair {
	var out []AttrPair
	nl := c.ctx.Left.Arity()
	for i := 0; i < nl; i++ {
		for j := nl; j < c.h; j++ {
			if c.at(i, j, eqIdx) {
				_, la := c.ctx.ColRef(i)
				_, ra := c.ctx.ColRef(j)
				out = append(out, P(la, ra))
			}
		}
	}
	return out
}

// FactCount returns the number of true entries in M (counting each
// symmetric pair twice), used by tests and ablation benchmarks.
func (c *Closure) FactCount() int {
	n := 0
	for _, v := range c.m {
		if v {
			n++
		}
	}
	return n
}

// fact is a queued similarity fact for Propagate.
type fact struct{ a, b, op int }

// colPair is an attribute pair resolved to column ids.
type colPair struct{ a, b int }

// watcher records that LHS conjunct conj (an index into the flat
// conjunct arrays of compiled) of MD md waits on an attribute pair.
type watcher struct{ md, conj int }

// traceSource records why a fact was assigned, for Explain.
type traceSource struct {
	kind traceKind
	md   int // fired MD index, for traceMD
	via  int // pivot column, for tracePivot
}

type traceKind int

const (
	traceSeed traceKind = iota
	traceMD
	tracePivot
)

// compiled is Σ compiled against one context, once per call of an entry
// point: attributes resolved to column ids, operators to small ints
// (equality is 0), and the LHS conjuncts of every MD indexed by the
// column pair (a*h+b) they wait on. It owns one closure run, which every
// closure of the call reuses.
type compiled struct {
	ctx     schema.Pair
	h       int
	ops     []similarity.Operator // equality, then Σ's operators in first-seen order
	opIndex map[string]int

	// The LHS conjuncts of Σ[i] are lhsPair/lhsOp[lhsStart[i]:lhsStart[i+1]]
	// (pair id a*h+b, operator); its RHS pairs are rhs[rhsStart[i]:rhsStart[i+1]].
	lhsStart, lhsPair, lhsOp []int
	rhsStart                 []int
	rhs                      []colPair

	// The conjuncts waiting on pair id x are watch[watchStart[x]:watchStart[x+1]],
	// in (MD, position) order.
	watchStart []int
	watch      []watcher

	run closureRun
}

// closureRun is the mutable state of MDClosure. It is reset, not
// reallocated, between the closures of one compiled Σ: M is cleared and
// only the MDs the previous run touched have their LHS state restored.
type closureRun struct {
	Closure
	c       *compiled
	met     []bool // per LHS conjunct
	unmet   []int  // per MD: LHS conjuncts not yet met
	applied []bool
	touched []int // MDs whose met, unmet or applied changed
	seeds   []fact
	queue   []fact
	fires   []int // MDs whose LHS became fully matched

	// observe, when non-nil, receives every newly assigned fact together
	// with its justification (set by Explain; nil on the Deduce path).
	observe func(a, b, op int, src traceSource)
	source  traceSource
}

// compile resolves Σ against ctx. Every MD is validated here, once;
// errors name the offending MD as Σ[i].
func compile(ctx schema.Pair, sigma []MD) (*compiled, error) {
	h := ctx.TotalColumns()
	c := &compiled{
		ctx:      ctx,
		h:        h,
		ops:      []similarity.Operator{similarity.Eq()},
		opIndex:  map[string]int{similarity.EqName: eqIdx},
		lhsStart: make([]int, 1, len(sigma)+1),
		rhsStart: make([]int, 1, len(sigma)+1),
	}
	for i, md := range sigma {
		if err := md.Validate(); err != nil {
			return nil, fmt.Errorf("Σ[%d]: %w", i, err)
		}
		for _, cj := range md.LHS {
			p, err := c.cols(cj.Pair)
			if err != nil {
				return nil, fmt.Errorf("Σ[%d]: %w", i, err)
			}
			op, ok := c.opIndex[cj.OpName()]
			if !ok {
				op = len(c.ops)
				c.opIndex[cj.OpName()] = op
				c.ops = append(c.ops, cj.Op)
			}
			c.lhsPair = append(c.lhsPair, p.a*h+p.b)
			c.lhsOp = append(c.lhsOp, op)
		}
		c.lhsStart = append(c.lhsStart, len(c.lhsPair))
		for _, pr := range md.RHS {
			p, err := c.cols(pr)
			if err != nil {
				return nil, fmt.Errorf("Σ[%d]: %w", i, err)
			}
			c.rhs = append(c.rhs, p)
		}
		c.rhsStart = append(c.rhsStart, len(c.rhs))
	}

	// Counting sort of the conjuncts by pair id; within one pair they keep
	// (MD, position) order, which fixes the order MDs fire in.
	c.watchStart = make([]int, h*h+1)
	for _, x := range c.lhsPair {
		c.watchStart[x+1]++
	}
	for x := 1; x <= h*h; x++ {
		c.watchStart[x] += c.watchStart[x-1]
	}
	next := append([]int(nil), c.watchStart[:h*h]...)
	c.watch = make([]watcher, len(c.lhsPair))
	for i := range sigma {
		for k := c.lhsStart[i]; k < c.lhsStart[i+1]; k++ {
			x := c.lhsPair[k]
			c.watch[next[x]] = watcher{md: i, conj: k}
			next[x]++
		}
	}

	c.run = closureRun{
		Closure: Closure{ctx: ctx, h: h},
		c:       c,
		met:     make([]bool, len(c.lhsPair)),
		unmet:   make([]int, len(sigma)),
		applied: make([]bool, len(sigma)),
	}
	for i := range sigma {
		c.run.unmet[i] = c.lhsStart[i+1] - c.lhsStart[i]
	}
	return c, nil
}

// cols resolves an attribute pair of the context to column ids.
func (c *compiled) cols(p AttrPair) (colPair, error) {
	a, err := c.ctx.Col(schema.Left, p.Left)
	if err != nil {
		return colPair{}, err
	}
	b, err := c.ctx.Col(schema.Right, p.Right)
	if err != nil {
		return colPair{}, err
	}
	return colPair{a, b}, nil
}

// colPairs resolves a list of attribute pairs.
func (c *compiled) colPairs(ps []AttrPair) ([]colPair, error) {
	out := make([]colPair, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = c.cols(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// closure runs MDClosure for the hypothesis LHS(ϕ) = lhs, leaving M in
// c.run. An operator of lhs that Σ does not use extends this run's
// operator universe after Σ's operators.
func (c *compiled) closure(lhs []Conjunct) error {
	r := &c.run
	r.ops, r.opIndex = c.ops, c.opIndex
	r.seeds = r.seeds[:0]
	for i, cj := range lhs {
		if cj.Op == nil {
			return fmt.Errorf("core: ϕ LHS conjunct %d has nil operator", i)
		}
		p, err := c.cols(cj.Pair)
		if err != nil {
			return fmt.Errorf("core: ϕ LHS conjunct %d: %w", i, err)
		}
		op, ok := r.opIndex[cj.OpName()]
		if !ok {
			if len(r.ops) == len(c.ops) { // copy on the first extension
				r.ops = append([]similarity.Operator(nil), c.ops...)
				r.opIndex = maps.Clone(c.opIndex)
			}
			op = len(r.ops)
			r.opIndex[cj.OpName()] = op
			r.ops = append(r.ops, cj.Op)
		}
		r.seeds = append(r.seeds, fact{p.a, p.b, op})
	}
	r.reset()

	// Lines 2-4 of Figure 5: seed M with the conjuncts of LHS(ϕ).
	for _, f := range r.seeds {
		if r.observe != nil {
			r.source = traceSource{kind: traceSeed}
		}
		if r.assign(f.a, f.b, f.op) {
			r.propagate()
		}
		r.drainFires()
	}
	// Lines 5-11: apply MDs until no further change. The watch index
	// makes the repeat loop event-driven: drainFires applies every MD
	// whose LHS has become fully matched, which may enqueue more.
	r.drainFires()
	return nil
}

// deduce reports whether Σ ⊨m LHS → rhs: whether the closure of lhs
// identifies every pair of rhs.
func (c *compiled) deduce(lhs []Conjunct, rhs []colPair) (bool, error) {
	if err := c.closure(lhs); err != nil {
		return false, err
	}
	for _, p := range rhs {
		if !c.run.at(p.a, p.b, eqIdx) {
			return false, nil
		}
	}
	return true, nil
}

// reset clears M, sized for the run's operator universe, and restores
// the LHS state of every MD the previous run touched.
func (r *closureRun) reset() {
	n := r.h * r.h * len(r.ops)
	if cap(r.m) < n {
		r.m = make([]bool, n)
	} else {
		r.m = r.m[:n]
		clear(r.m)
	}
	c := r.c
	for _, md := range r.touched {
		lo, hi := c.lhsStart[md], c.lhsStart[md+1]
		clear(r.met[lo:hi])
		r.unmet[md] = hi - lo
		r.applied[md] = false
	}
	r.touched = r.touched[:0]
}

// MDClosure computes the closure of Σ and LHS(ϕ) (Figure 5). It returns
// the array M such that M(R[A], R'[B], ≈) = 1 iff Σ ⊨m LHS(ϕ) → R[A] ≈
// R'[B]. Σ ⊨m ϕ then holds iff M(C1, C2, =) = 1 for every RHS pair
// (C1, C2) of ϕ (checked by Deduce).
//
// The deliberate strengthening over the paper's Figure 6 (documented in
// DESIGN.md §2.1): Propagate scans equality partners of both endpoints in
// both relations, closing M under the full set of generic axioms. The
// complexity bound O(n² + h³) of Theorem 4.1 is preserved (p constant);
// the MD main loop is driven by a watch index so each MD is inspected
// O(|LHS|) times rather than O(n) times.
func MDClosure(ctx schema.Pair, sigma []MD, lhs []Conjunct) (*Closure, error) {
	c, err := compile(ctx, sigma)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := c.closure(lhs); err != nil {
		return nil, err
	}
	cl := c.run.Closure
	return &cl, nil
}

// assign is procedure AssignVal (Figure 5): record R[A] ≈op R'[B] and its
// symmetric entry unless already subsumed; returns whether M changed.
// New facts are pushed on the propagation queue and LHS watchers are
// notified.
func (r *closureRun) assign(a, b, op int) bool {
	if r.at(a, b, eqIdx) || r.at(a, b, op) {
		return false
	}
	r.set(a, b, op)
	r.set(b, a, op)
	if r.observe != nil {
		r.observe(a, b, op, r.source)
	}
	r.queue = append(r.queue, fact{a, b, op})
	r.notify(a, b, op)
	if a != b {
		r.notify(b, a, op)
	}
	return true
}

// notify wakes LHS conjuncts waiting on the pair (a, b). A conjunct with
// operator ≈ is met by a fact with the same operator or by equality
// (which subsumes every similarity operator, line 7 of Figure 5).
func (r *closureRun) notify(a, b, op int) {
	c := r.c
	x := a*r.h + b
	for _, w := range c.watch[c.watchStart[x]:c.watchStart[x+1]] {
		if r.met[w.conj] {
			continue
		}
		if op != eqIdx && c.lhsOp[w.conj] != op {
			continue
		}
		r.met[w.conj] = true
		if r.unmet[w.md] == c.lhsStart[w.md+1]-c.lhsStart[w.md] {
			r.touched = append(r.touched, w.md)
		}
		r.unmet[w.md]--
		if r.unmet[w.md] == 0 {
			r.fires = append(r.fires, w.md)
		}
	}
}

// drainFires applies every MD whose LHS is fully matched (lines 9-11 of
// Figure 5): its RHS pairs are recorded as identified and propagated,
// which may fire further MDs.
func (r *closureRun) drainFires() {
	for len(r.fires) > 0 {
		md := r.fires[len(r.fires)-1]
		r.fires = r.fires[:len(r.fires)-1]
		if r.applied[md] {
			continue
		}
		r.applied[md] = true // line 9: Σ := Σ \ {φ}
		for _, p := range r.c.rhs[r.c.rhsStart[md]:r.c.rhsStart[md+1]] {
			if r.observe != nil {
				r.source = traceSource{kind: traceMD, md: md}
			}
			if r.assign(p.a, p.b, eqIdx) {
				r.propagate()
			}
		}
	}
}

// propagate is procedure Propagate (Figure 6), strengthened to scan both
// relations for both endpoints: for each popped fact x ≈ y it applies
// the generic axioms
//
//	x ≈ y ∧ x = c  ⇒  y ≈ c
//	x ≈ y ∧ y = c  ⇒  x ≈ c
//
// and, when the popped fact is an equality x = y, additionally inherits
// every similarity relation across it:
//
//	x = y ∧ x ≈d c  ⇒  y ≈d c
//	x = y ∧ y ≈d c  ⇒  x ≈d c
//
// (procedure Infer, Figure 6, both cases).
func (r *closureRun) propagate() {
	for len(r.queue) > 0 {
		f := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		p := len(r.ops)
		w := r.h * p // M's rows for f.a and f.b, indexed c*p + op
		rowA, rowB := r.m[f.a*w:(f.a+1)*w], r.m[f.b*w:(f.b+1)*w]
		for c := 0; c < r.h; c++ {
			if c != f.b && rowA[c*p] {
				if r.observe != nil {
					r.source = traceSource{kind: tracePivot, via: f.a}
				}
				r.assign(f.b, c, f.op)
			}
			if c != f.a && rowB[c*p] {
				if r.observe != nil {
					r.source = traceSource{kind: tracePivot, via: f.b}
				}
				r.assign(f.a, c, f.op)
			}
			if f.op == eqIdx {
				for d := 1; d < p; d++ {
					if c != f.b && rowA[c*p+d] {
						if r.observe != nil {
							r.source = traceSource{kind: tracePivot, via: f.a}
						}
						r.assign(f.b, c, d)
					}
					if c != f.a && rowB[c*p+d] {
						if r.observe != nil {
							r.source = traceSource{kind: tracePivot, via: f.b}
						}
						r.assign(f.a, c, d)
					}
				}
			}
		}
	}
}

// Deduce decides the deduction problem (Section 3.1): whether Σ ⊨m ϕ,
// i.e. whether for every instance D and every stable instance D' for Σ,
// (D, D') ⊨ Σ implies (D, D') ⊨ ϕ. By Theorem 4.1 this holds iff every
// RHS pair of ϕ is identified in the closure of Σ and LHS(ϕ).
func Deduce(sigma []MD, phi MD) (bool, error) {
	c, rhs, err := compileGoal(sigma, phi)
	if err != nil {
		return false, err
	}
	return c.deduce(phi.LHS, rhs)
}

// compileGoal validates ϕ, compiles Σ against ϕ's context and resolves
// ϕ's RHS: the set-up Deduce, Explain and Minimize share.
func compileGoal(sigma []MD, phi MD) (*compiled, []colPair, error) {
	if err := phi.Validate(); err != nil {
		return nil, nil, err
	}
	c, err := compile(phi.Ctx, sigma)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	rhs, err := c.colPairs(phi.RHS)
	return c, rhs, err
}

// DeduceKey decides Σ ⊨m ψ for a relative key ψ.
func DeduceKey(sigma []MD, key Key) (bool, error) {
	return Deduce(sigma, key.AsMD())
}
