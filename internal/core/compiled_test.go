package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// diffCase is one generated closure input: Σ, the hypothesis LHS(ϕ) and
// an RHS so that the same input also serves Deduce and Explain.
type diffCase struct {
	name  string
	ctx   schema.Pair
	sigma []MD
	lhs   []Conjunct
	rhs   []AttrPair
}

// diffCases generates the inputs of the differential closure test. The
// sequence is deterministic: testdata/closure_digests.golden holds one
// digest per case, recorded from the map-built closure that the compiled
// one replaced. It covers
//   - cross-relation contexts where ϕ's LHS uses an operator (Soundex,
//     token Jaccard) that no MD of Σ uses;
//   - self-match contexts (both sides the same relation);
//   - empty Σ.
func diffCases() []diffCase {
	sigmaOps := []similarity.Operator{similarity.Eq(), similarity.DL(0.8), similarity.JaroOp(0.85)}
	phiOnly := []similarity.Operator{similarity.SoundexEq(), similarity.TokenOp(0.5)}
	rnd := rand.New(rand.NewSource(45))
	gen := func(name string, ctx schema.Pair, nSigma int) diffCase {
		nl, nr := ctx.Left.Arity(), ctx.Right.Arity()
		pair := func() AttrPair {
			return P(ctx.Left.Attr(rnd.Intn(nl)).Name, ctx.Right.Attr(rnd.Intn(nr)).Name)
		}
		conj := func(ops []similarity.Operator) Conjunct {
			return Conjunct{Pair: pair(), Op: ops[rnd.Intn(len(ops))]}
		}
		c := diffCase{name: name, ctx: ctx, sigma: make([]MD, nSigma)}
		for i := range c.sigma {
			lhs := make([]Conjunct, 1+rnd.Intn(3))
			for j := range lhs {
				lhs[j] = conj(sigmaOps)
			}
			rhs := make([]AttrPair, 1+rnd.Intn(2))
			for j := range rhs {
				rhs[j] = pair()
			}
			c.sigma[i] = MD{Ctx: ctx, LHS: lhs, RHS: rhs}
		}
		c.lhs = make([]Conjunct, 1+rnd.Intn(4))
		for j := range c.lhs {
			c.lhs[j] = conj(sigmaOps)
		}
		// One conjunct of ϕ in two tests an operator Σ never uses.
		if rnd.Intn(2) == 0 {
			c.lhs[rnd.Intn(len(c.lhs))] = conj(phiOnly)
		}
		c.rhs = []AttrPair{pair(), pair()}
		return c
	}
	var out []diffCase
	attrs := func(prefix string) []string {
		out := make([]string, 7)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	cross := schema.MustPair(schema.MustStrings("L", attrs("l")...), schema.MustStrings("R", attrs("r")...))
	for i := 0; i < 150; i++ {
		out = append(out, gen(fmt.Sprintf("cross-%d", i), cross, 2+rnd.Intn(14)))
	}
	r := schema.MustStrings("R", "A", "B", "C", "D", "E", "F")
	self := schema.MustPair(r, r)
	for i := 0; i < 100; i++ {
		out = append(out, gen(fmt.Sprintf("self-%d", i), self, 1+rnd.Intn(10)))
	}
	for i := 0; i < 20; i++ {
		ctx := cross
		if i%2 == 1 {
			ctx = self
		}
		out = append(out, gen(fmt.Sprintf("empty-%d", i), ctx, 0))
	}
	return out
}

// closureDigest hashes the operator universe and the whole M array.
func closureDigest(cl *Closure) string {
	h := fnv.New64a()
	for _, op := range cl.Ops() {
		fmt.Fprintf(h, "%s;", op.Name())
	}
	b := make([]byte, len(cl.m))
	for i, v := range cl.m {
		if v {
			b[i] = 1
		}
	}
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// readGolden reads "name value" lines from a golden file.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompiledClosureDifferential checks the compiled closure against the
// Figure 5/6 transliteration MDClosureLiteral, entry for entry over the
// whole M array, and against the digest of the map-built closure it
// replaced. The compiled Propagate closes under strictly more axiom
// instances (DESIGN.md §2.1), so every literal entry must be implied by a
// compiled one: the same entry, or the equality entry that subsumes it.
// Only the literal's trivially reflexive diagonal facts (x ≈ x), which
// the compiled closure skips, are exempt.
func TestCompiledClosureDifferential(t *testing.T) {
	golden := readGolden(t, "testdata/closure_digests.golden")
	cases := diffCases()
	if len(golden) != len(cases) {
		t.Fatalf("golden has %d digests, generator %d cases", len(golden), len(cases))
	}
	for _, c := range cases {
		got, err := MDClosure(c.ctx, c.sigma, c.lhs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lit, err := MDClosureLiteral(c.ctx, c.sigma, c.lhs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := closureDigest(got); d != golden[c.name] {
			t.Errorf("%s: closure digest %s, golden %s", c.name, d, golden[c.name])
		}
		if len(got.ops) != len(lit.ops) || len(got.m) != len(lit.m) {
			t.Fatalf("%s: universes differ: %d vs %d operators", c.name, len(got.ops), len(lit.ops))
		}
		for i, op := range got.ops {
			if op.Name() != lit.ops[i].Name() {
				t.Fatalf("%s: operator %d is %s, literal %s", c.name, i, op.Name(), lit.ops[i].Name())
			}
		}
		p := len(got.ops)
		for i, v := range lit.m {
			a, b, op := i/p/got.h, i/p%got.h, i%p
			if !v || a == b || got.m[i] || got.at(a, b, eqIdx) {
				continue
			}
			t.Fatalf("%s: literal closure has M(%d, %d, %s) that the compiled closure lacks",
				c.name, a, b, got.ops[op].Name())
		}
	}
}

// explainGoldenInputs are the derivations pinned by
// testdata/explain_steps.golden: the paper's Example Σc against rck1-4,
// the email-only non-key and the full identity key, Example 3.1's
// self-match ψ3, and the first generated differential cases.
func explainGoldenInputs(t *testing.T) (names []string, sigmas [][]MD, phis []MD) {
	ctx, sigma, target, d := creditBilling(t)
	for i, k := range paperRCKs(ctx, target, d) {
		names = append(names, fmt.Sprintf("rck%d", i+1))
		sigmas = append(sigmas, sigma)
		phis = append(phis, k.AsMD())
	}
	names = append(names, "email-only", "identity")
	sigmas = append(sigmas, sigma, sigma)
	phis = append(phis,
		MD{Ctx: ctx, LHS: []Conjunct{Eq("email", "email")}, RHS: target.Pairs()},
		IdentityKey(ctx, target).AsMD())
	_, sigma0, psi3 := selfMatchABC(t)
	names = append(names, "psi3")
	sigmas = append(sigmas, sigma0)
	phis = append(phis, psi3)
	for _, c := range diffCases()[:40] {
		names = append(names, c.name)
		sigmas = append(sigmas, c.sigma)
		phis = append(phis, MD{Ctx: c.ctx, LHS: c.lhs, RHS: c.rhs})
	}
	return names, sigmas, phis
}

// renderExplain renders a derivation as one golden line per step.
func renderExplain(name string, exp *Explanation, sigma []MD) string {
	var b strings.Builder
	for i, line := range strings.Split(strings.TrimSuffix(exp.Render(sigma), "\n"), "\n") {
		fmt.Fprintf(&b, "%s:%03d %s\n", name, i, line)
	}
	return b.String()
}

// TestExplainGolden pins Explain's whole step sequence — facts, kinds,
// fired MDs and pivots, in order — to the derivations recorded from the
// map-built closure. TestExplainRCK4 checks only which steps occur.
func TestExplainGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/explain_steps.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	names, sigmas, phis := explainGoldenInputs(t)
	for i := range names {
		exp, err := Explain(sigmas[i], phis[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got.WriteString(renderExplain(names[i], exp, sigmas[i]))
	}
	if got.String() != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("explain line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("explain output has %d lines, golden %d", len(gl), len(wl))
	}
}
