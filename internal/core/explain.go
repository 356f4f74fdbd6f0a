package core

import (
	"fmt"
	"strings"

	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// Explanation is a human-readable derivation of a deduction Σ ⊨m ϕ: the
// ordered list of proof steps the closure took from the hypothesis
// LHS(ϕ) to the identification of RHS(ϕ). It makes the paper's inference
// system I (Section 3.2) tangible: each step is an instance of one of
// the axiom groups — hypothesis introduction, MD application
// (transitivity, Lemma 3.3), equality propagation, or similarity
// inheritance through equality (Lemma 3.4 interactions).
type Explanation struct {
	// Steps in derivation order.
	Steps []ProofStep
	// Deduced reports whether every RHS pair of ϕ was identified.
	Deduced bool
	// Goal is the MD being derived.
	Goal MD
}

// StepKind classifies proof steps.
type StepKind int

// The step kinds, mirroring the axiom groups of the inference system.
const (
	// StepHypothesis introduces a conjunct of LHS(ϕ).
	StepHypothesis StepKind = iota
	// StepApplyMD fires an MD of Σ whose LHS is fully derived.
	StepApplyMD
	// StepPropagate applies a generic axiom: x ≈ y ∧ y = z ⟹ x ≈ z, or
	// similarity inheritance across a new equality.
	StepPropagate
)

func (k StepKind) String() string {
	switch k {
	case StepHypothesis:
		return "hypothesis"
	case StepApplyMD:
		return "apply-md"
	case StepPropagate:
		return "propagate"
	}
	return "unknown"
}

// ProofStep is one derived fact with its justification.
type ProofStep struct {
	Kind StepKind
	// Fact is the derived similarity fact.
	FactA, FactB FactRef
	Op           string
	// MD is the fired dependency for StepApplyMD steps (index into Σ).
	MDIndex int
	// Via is the pre-existing fact a propagation step pivoted on
	// (only for StepPropagate).
	Via FactRef
}

// FactRef names one column: side + attribute.
type FactRef struct {
	Side schema.Side
	Attr string
}

func (f FactRef) String() string { return fmt.Sprintf("%s[%s]", f.Side, f.Attr) }

// render formats a step against Σ.
func (s ProofStep) render(sigma []MD) string {
	fact := fmt.Sprintf("%s %s %s", s.FactA, opGlyph(s.Op), s.FactB)
	switch s.Kind {
	case StepHypothesis:
		return fmt.Sprintf("%-30s  [hypothesis]", fact)
	case StepApplyMD:
		md := "?"
		if s.MDIndex >= 0 && s.MDIndex < len(sigma) {
			md = sigma[s.MDIndex].String()
		}
		return fmt.Sprintf("%-30s  [apply ϕ%d: %s]", fact, s.MDIndex+1, md)
	case StepPropagate:
		return fmt.Sprintf("%-30s  [via %s]", fact, s.Via)
	}
	return fact
}

func opGlyph(op string) string {
	if op == similarity.EqName {
		return "⇌"
	}
	return "≈" + op
}

// String renders the whole derivation.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal: %s\n", e.Goal)
	for i, s := range e.Steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s.render(nil))
		_ = i
	}
	if e.Deduced {
		b.WriteString("∴ deduced (Σ ⊨m ϕ)\n")
	} else {
		b.WriteString("∴ NOT deduced (Σ ⊭m ϕ)\n")
	}
	return b.String()
}

// Render renders the derivation with Σ available for MD step labels.
func (e *Explanation) Render(sigma []MD) string {
	var b strings.Builder
	fmt.Fprintf(&b, "goal: %s\n", e.Goal)
	for i, s := range e.Steps {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, s.render(sigma))
	}
	if e.Deduced {
		b.WriteString("∴ deduced (Σ ⊨m ϕ)\n")
	} else {
		b.WriteString("∴ NOT deduced (Σ ⊭m ϕ)\n")
	}
	return b.String()
}

// Explain runs the deduction of ϕ from Σ and records the derivation.
// The trace is observed on the closure run Deduce uses, so its verdict
// always agrees with Deduce.
func Explain(sigma []MD, phi MD) (*Explanation, error) {
	c, rhs, err := compileGoal(sigma, phi)
	if err != nil {
		return nil, err
	}
	exp := &Explanation{Goal: phi}
	ref := func(col int) FactRef {
		side, attr := phi.Ctx.ColRef(col)
		return FactRef{Side: side, Attr: attr}
	}
	c.run.observe = func(a, b, op int, source traceSource) {
		step := ProofStep{FactA: ref(a), FactB: ref(b), Op: c.run.ops[op].Name(), MDIndex: -1}
		switch source.kind {
		case traceSeed:
			step.Kind = StepHypothesis
		case traceMD:
			step.Kind = StepApplyMD
			step.MDIndex = source.md
		case tracePivot:
			step.Kind = StepPropagate
			step.Via = ref(source.via)
		}
		exp.Steps = append(exp.Steps, step)
	}
	if exp.Deduced, err = c.deduce(phi.LHS, rhs); err != nil {
		return nil, err
	}
	return exp, nil
}
