package core

import (
	"fmt"

	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// MDClosureLiteral is a direct transliteration of Figures 5 and 6 of the
// paper, kept as the oracle of the compiled closure's differential tests
// and as the baseline of the ablation benchmarks (DESIGN.md §2.1, §5):
//
//   - the main loop is the literal "repeat until no further changes; for
//     each MD φ in Σ" scan (lines 5-11), not the watch-indexed
//     event-driven loop of MDClosure;
//   - Propagate handles exactly the three relation-combination cases of
//     Figure 6, and Infer scans exactly the columns the paper's
//     pseudocode scans.
//
// MDClosure (the production implementation) strengthens Propagate to
// scan equality partners of both endpoints in both relations; its fact
// set is always a superset of this one (asserted by
// TestLiteralClosureSubset), and on every rule set arising from
// cross-relation matching the deduction verdicts coincide.
func MDClosureLiteral(ctx schema.Pair, sigma []MD, lhs []Conjunct) (*Closure, error) {
	opIndex := map[string]int{similarity.EqName: eqIdx}
	ops := []similarity.Operator{similarity.Eq()}
	addOp := func(op similarity.Operator) {
		if op == nil {
			return
		}
		if _, ok := opIndex[op.Name()]; !ok {
			opIndex[op.Name()] = len(ops)
			ops = append(ops, op)
		}
	}
	for _, md := range sigma {
		for _, c := range md.LHS {
			addOp(c.Op)
		}
	}
	for _, c := range lhs {
		addOp(c.Op)
	}
	h := ctx.TotalColumns()
	cl := &Closure{ctx: ctx, h: h, ops: ops, opIndex: opIndex, m: make([]bool, h*h*len(ops))}
	run := &literalRun{Closure: cl, nl: ctx.Left.Arity()}

	col := func(s schema.Side, attr string) (int, error) { return ctx.Col(s, attr) }

	// Lines 2-4: seed with LHS(ϕ).
	for i, c := range lhs {
		if c.Op == nil {
			return nil, fmt.Errorf("core: ϕ LHS conjunct %d has nil operator", i)
		}
		a, err := col(schema.Left, c.Pair.Left)
		if err != nil {
			return nil, err
		}
		b, err := col(schema.Right, c.Pair.Right)
		if err != nil {
			return nil, err
		}
		if run.assignVal(a, b, opIndex[c.OpName()]) {
			run.propagate(a, b, opIndex[c.OpName()])
		}
	}

	// Lines 5-11: repeat until no further changes.
	remaining := make([]MD, len(sigma))
	copy(remaining, sigma)
	for i, md := range remaining {
		if err := md.Validate(); err != nil {
			return nil, fmt.Errorf("core: Σ[%d]: %w", i, err)
		}
	}
	for {
		changed := false
		for i := 0; i < len(remaining); i++ {
			md := remaining[i]
			matched := true
			for _, c := range md.LHS {
				a, _ := col(schema.Left, c.Pair.Left)
				b, _ := col(schema.Right, c.Pair.Right)
				if !cl.at(a, b, eqIdx) && !cl.at(a, b, opIndex[c.OpName()]) {
					matched = false
					break
				}
			}
			if !matched {
				continue // line 8
			}
			// Line 9: Σ := Σ \ {φ}.
			remaining = append(remaining[:i], remaining[i+1:]...)
			i--
			for _, p := range md.RHS {
				a, _ := col(schema.Left, p.Left)
				b, _ := col(schema.Right, p.Right)
				if run.assignVal(a, b, eqIdx) {
					run.propagate(a, b, eqIdx)
				}
			}
			changed = true
		}
		if !changed {
			break
		}
	}
	return cl, nil
}

type literalRun struct {
	*Closure
	nl    int // left arity: columns < nl are R1's
	queue []fact
}

func (r *literalRun) isLeft(col int) bool { return col < r.nl }

// assignVal is procedure AssignVal, verbatim.
func (r *literalRun) assignVal(a, b, op int) bool {
	if r.at(a, b, eqIdx) || r.at(a, b, op) {
		return false
	}
	r.set(a, b, op)
	r.set(b, a, op)
	return true
}

// propagate is procedure Propagate with the three cases of Figure 6.
func (r *literalRun) propagate(a, b, op int) {
	r.queue = append(r.queue, fact{a, b, op})
	for len(r.queue) > 0 {
		f := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		switch {
		case r.isLeft(f.a) && !r.isLeft(f.b): // case (1): R = R1, R' = R2
			r.infer(f.b, f.a, schema.Left, f.op)
			r.infer(f.a, f.b, schema.Right, f.op)
		case !r.isLeft(f.a) && r.isLeft(f.b): // symmetric orientation
			r.infer(f.a, f.b, schema.Left, f.op)
			r.infer(f.b, f.a, schema.Right, f.op)
		case r.isLeft(f.a) && r.isLeft(f.b): // case (2): R = R' = R1
			r.infer(f.a, f.b, schema.Right, f.op)
			r.infer(f.b, f.a, schema.Right, f.op)
		default: // case (3): R = R' = R2
			r.infer(f.a, f.b, schema.Left, f.op)
			r.infer(f.b, f.a, schema.Left, f.op)
		}
	}
}

// infer is procedure Infer: for each attribute C of R”, if
// M(a, R”[C], =) then b ≈op R”[C]; and when op is equality, inherit
// every similarity relation of a onto b.
func (r *literalRun) infer(a, b int, side schema.Side, op int) {
	lo, hi := 0, r.nl
	if side == schema.Right {
		lo, hi = r.nl, r.h
	}
	for c := lo; c < hi; c++ {
		if r.at(a, c, eqIdx) {
			if r.assignVal(b, c, op) {
				r.queue = append(r.queue, fact{b, c, op})
			}
		}
		if op == eqIdx {
			for d := 1; d < len(r.ops); d++ {
				if r.at(a, c, d) && r.assignVal(b, c, d) {
					r.queue = append(r.queue, fact{b, c, d})
				}
			}
		}
	}
}

// DeduceLiteral is Deduce on top of MDClosureLiteral, for ablation.
func DeduceLiteral(sigma []MD, phi MD) (bool, error) {
	if err := phi.Validate(); err != nil {
		return false, err
	}
	cl, err := MDClosureLiteral(phi.Ctx, sigma, phi.LHS)
	if err != nil {
		return false, err
	}
	for _, p := range phi.RHS {
		ok, err := cl.Identified(p.Left, p.Right)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
