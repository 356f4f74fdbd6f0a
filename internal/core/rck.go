package core

import (
	"fmt"
	"slices"
	"sort"

	"mdmatch/internal/schema"
	"mdmatch/internal/similarity"
)

// CostModel is the quality model of Section 5. The cost of including an
// attribute pair (R1[A], R2[B]) in an RCK is
//
//	cost(A,B) = W1·ct(A,B) + W2·lt(A,B) + W3/ac(A,B)
//
// where ct counts how many selected RCKs already use the pair (diversity),
// lt is the average value length of the pair (longer values attract more
// errors), and ac is the user's confidence in the pair's accuracy.
// findRCKs prefers low-cost pairs. The paper's experiments use
// W1=W2=W3=1 and ac≡1.
type CostModel struct {
	W1, W2, W3 float64
	// Lt returns the average length statistic for a pair; nil means 0.
	Lt func(AttrPair) float64
	// Ac returns the accuracy/confidence for a pair; nil means 1.
	Ac func(AttrPair) float64

	ct map[AttrPair]int
	// ct, lt and ac by the column pair id (a*h+b) of every LHS pair of
	// the Σ being searched: lhsCost reads these instead of hashing pairs.
	lhsID    map[AttrPair]int
	cts      []int
	lts, acs []float64
}

// DefaultCostModel returns the paper's experimental configuration:
// weights (1, 1, 1), lt ≡ 0, ac ≡ 1.
func DefaultCostModel() *CostModel {
	return &CostModel{W1: 1, W2: 1, W3: 1}
}

// Cost returns the current cost of an attribute pair.
func (c *CostModel) Cost(p AttrPair) float64 {
	lt, ac := c.ltAc(p)
	return c.W1*float64(c.ct[p]) + c.W2*lt + c.W3/ac
}

// ltAc returns lt and the guarded ac of a pair.
func (c *CostModel) ltAc(p AttrPair) (lt, ac float64) {
	ac = 1.0
	if c.Lt != nil {
		lt = c.Lt(p)
	}
	if c.Ac != nil {
		ac = c.Ac(p)
		if ac <= 0 {
			ac = 1e-9 // guard: zero confidence means effectively infinite cost
		}
	}
	return lt, ac
}

// KeyCost returns the summed pair cost of a key's conjuncts.
func (c *CostModel) KeyCost(k Key) float64 {
	total := 0.0
	for _, cj := range k.Conjuncts {
		total += c.Cost(cj.Pair)
	}
	return total
}

// lhsCost returns the summed pair cost of an MD's LHS (procedure
// sortMD), given the pair ids of its conjuncts. It evaluates Cost's
// expression in Cost's order, so ties break exactly as Cost's would.
func (c *CostModel) lhsCost(ids []int) float64 {
	total := 0.0
	for _, id := range ids {
		total += c.W1*float64(c.cts[id]) + c.W2*c.lts[id] + c.W3/c.acs[id]
	}
	return total
}

// resetCt clears the diversity counters (line 2 of findRCKs).
func (c *CostModel) resetCt() { c.ct = make(map[AttrPair]int) }

// index sets up, after resetCt, the pair-id view of ct, lt and ac that
// lhsCost reads, for the LHS pairs of compiled Σ.
func (c *CostModel) index(sigma []MD, comp *compiled) {
	n := comp.h * comp.h
	c.lhsID = make(map[AttrPair]int)
	c.cts, c.lts, c.acs = make([]int, n), make([]float64, n), make([]float64, n)
	k := 0
	for _, md := range sigma {
		for _, cj := range md.LHS {
			id := comp.lhsPair[k]
			k++
			if _, ok := c.lhsID[cj.Pair]; ok {
				continue
			}
			c.lhsID[cj.Pair] = id
			c.lts[id], c.acs[id] = c.ltAc(cj.Pair)
		}
	}
}

// bump is procedure incrementCt: increment ct for each pair used by the
// key that also occurs in the pairing set S.
func (c *CostModel) bump(s map[AttrPair]struct{}, k Key) {
	for _, cj := range k.Conjuncts {
		if _, ok := s[cj.Pair]; ok {
			c.ct[cj.Pair]++
			if id, ok := c.lhsID[cj.Pair]; ok {
				c.cts[id]++
			}
		}
	}
}

// Ct exposes the current diversity counter of a pair (for tests and
// diagnostics).
func (c *CostModel) Ct(p AttrPair) int { return c.ct[p] }

// Pairing collects the set S of attribute pairs that occur in (Y1, Y2) or
// in any MD of Σ (procedure pairing(Σ, Y1, Y2), line 1 of findRCKs).
func Pairing(sigma []MD, target Target) map[AttrPair]struct{} {
	s := make(map[AttrPair]struct{})
	for _, p := range target.Pairs() {
		s[p] = struct{}{}
	}
	for _, md := range sigma {
		for _, c := range md.LHS {
			s[c.Pair] = struct{}{}
		}
		for _, p := range md.RHS {
			s[p] = struct{}{}
		}
	}
	return s
}

// Apply implements apply(γ, φ) of Section 5: remove from γ's conjuncts
// every pair occurring in RHS(φ), then union in the conjuncts of LHS(φ).
// Operator subsumption is respected when unioning: an equality conjunct
// on a pair absorbs any similarity conjunct on the same pair.
func Apply(k Key, md MD) Key {
	rhs := make(map[AttrPair]struct{}, len(md.RHS))
	for _, p := range md.RHS {
		rhs[p] = struct{}{}
	}
	out := make([]Conjunct, 0, len(k.Conjuncts)+len(md.LHS))
	for _, c := range k.Conjuncts {
		if _, drop := rhs[c.Pair]; !drop {
			out = append(out, c)
		}
	}
	for _, c := range md.LHS {
		out = unionConjunct(out, c)
	}
	return Key{Ctx: k.Ctx, Target: k.Target, Conjuncts: out}
}

// unionConjunct adds c to cs respecting operator subsumption: if cs has
// the pair with equality, c is redundant; if c is an equality it replaces
// any similarity conjunct on the same pair; an exact duplicate is
// dropped. Two distinct similarity operators on the same pair both stay.
func unionConjunct(cs []Conjunct, c Conjunct) []Conjunct {
	cIsEq := c.OpName() == similarity.EqName
	for i, d := range cs {
		if d.Pair != c.Pair {
			continue
		}
		if d.OpName() == similarity.EqName {
			return cs // existing equality absorbs anything
		}
		if cIsEq {
			// Equality absorbs the similarity conjunct; also sweep any
			// further similarity conjuncts on the same pair.
			cs[i] = c
			out := cs[:i+1]
			for _, e := range cs[i+1:] {
				if e.Pair != c.Pair {
					out = append(out, e)
				}
			}
			return out
		}
		if d.OpName() == c.OpName() {
			return cs // exact duplicate
		}
	}
	return append(cs, c)
}

// Minimize implements procedure minimize (Figure 7): greedily drop the
// highest-cost conjuncts from the key while Σ still deduces it. Because
// LHS deducibility is monotone (augmentation, Lemma 3.1), a key from
// which no single conjunct can be dropped has no deducible proper
// sub-key at all — i.e. the result is a relative candidate key.
func Minimize(k Key, sigma []MD, cm *CostModel) (Key, error) {
	if cm == nil {
		cm = DefaultCostModel()
	}
	c, rhs, err := compileGoal(sigma, k.AsMD())
	if err != nil {
		return Key{}, err
	}
	return c.minimize(k, rhs, cm)
}

// minimize is Minimize on compiled Σ; rhs is the key's target.
func (c *compiled) minimize(k Key, rhs []colPair, cm *CostModel) (Key, error) {
	order := make([]int, len(k.Conjuncts))
	for i := range order {
		order[i] = i
	}
	// Descending cost; stable so ties keep declaration order.
	sort.SliceStable(order, func(a, b int) bool {
		return cm.Cost(k.Conjuncts[order[a]].Pair) > cm.Cost(k.Conjuncts[order[b]].Pair)
	})
	removed := make([]bool, len(k.Conjuncts))
	rest := make([]Conjunct, 0, len(k.Conjuncts))
	current := func(skip int) []Conjunct {
		rest = rest[:0]
		for i, c := range k.Conjuncts {
			if !removed[i] && i != skip {
				rest = append(rest, c)
			}
		}
		return rest
	}
	for _, idx := range order {
		if len(current(idx)) == 0 {
			continue
		}
		ok, err := c.deduce(rest, rhs)
		if err != nil {
			return Key{}, err
		}
		if ok {
			removed[idx] = true
		}
	}
	return Key{Ctx: k.Ctx, Target: k.Target, Conjuncts: slices.Clone(current(-1))}, nil
}

// FindRCKs implements algorithm findRCKs (Figure 7): given Σ, a target
// (Y1, Y2) and a bound m, it returns up to m quality RCKs relative to the
// target, deduced from Σ. If fewer than m RCKs exist, all of them are
// returned (completeness follows Proposition 5.1: the worklist stops when
// for every γ ∈ Γ and φ ∈ Σ some key in Γ covers apply(γ, φ)).
//
// cm may be nil, in which case the paper's default cost model is used.
// The diversity counters of cm are reset at the start of each call.
func FindRCKs(ctx schema.Pair, sigma []MD, target Target, m int, cm *CostModel) ([]Key, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: FindRCKs requires m > 0")
	}
	if err := ctx.Comparable(target.Y1, target.Y2); err != nil {
		return nil, fmt.Errorf("core: FindRCKs: %w", err)
	}
	c, err := compile(ctx, sigma)
	if err != nil {
		return nil, fmt.Errorf("core: FindRCKs: %w", err)
	}
	rhs, err := c.colPairs(target.Pairs())
	if err != nil {
		return nil, err
	}
	if cm == nil {
		cm = DefaultCostModel()
	}
	cm.resetCt()
	cm.index(sigma, c)
	s := Pairing(sigma, target) // line 1

	// Lines 3-4: minimize the identity key and seed Γ.
	gamma0, err := c.minimize(IdentityKey(ctx, target), rhs, cm)
	if err != nil {
		return nil, err
	}
	result := []Key{gamma0}
	cm.bump(s, gamma0)
	if m == 1 {
		return result, nil
	}

	// Lines 5-15: worklist over Γ; for each key, apply each MD in
	// ascending LHS-cost order, minimize, and keep uncovered results.
	lhsIDs := func(md int) []int { return c.lhsPair[c.lhsStart[md]:c.lhsStart[md+1]] }
	remaining := make([]int, 0, len(sigma)) // indices into Σ
	for i := 0; i < len(result); i++ {
		remaining = remaining[:0]
		for j := range sigma {
			remaining = append(remaining, j)
		}
		for len(remaining) > 0 {
			// sortMD: pick the cheapest remaining MD (costs change as
			// counters are bumped, so selection is per-iteration).
			best := 0
			bestCost := cm.lhsCost(lhsIDs(remaining[0]))
			for j := 1; j < len(remaining); j++ {
				if cost := cm.lhsCost(lhsIDs(remaining[j])); cost < bestCost {
					best, bestCost = j, cost
				}
			}
			phi := sigma[remaining[best]]
			remaining = append(remaining[:best], remaining[best+1:]...)

			cand := Apply(result[i], phi)
			if covered(result, cand) {
				continue
			}
			// Defensive re-check: apply of a deducible key by an MD of Σ
			// is always deducible (Lemmas 3.1-3.3); skip if not, rather
			// than emit a non-key.
			ok, err := c.deduce(cand.Conjuncts, rhs)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			minimized, err := c.minimize(cand, rhs, cm)
			if err != nil {
				return nil, err
			}
			if covered(result, minimized) {
				continue
			}
			result = append(result, minimized)
			cm.bump(s, minimized)
			if len(result) == m {
				return result, nil
			}
		}
	}
	return result, nil
}

// covered reports whether some key in keys covers cand (the completeness
// test of lines 10-11, with the non-strict order of DESIGN.md §2.2).
func covered(keys []Key, cand Key) bool {
	for _, k := range keys {
		if k.Covers(cand) {
			return true
		}
	}
	return false
}

// AllRCKs returns every RCK deducible from Σ relative to the target, by
// running FindRCKs with an effectively unbounded m. Use only when Σ is
// small (the number of RCKs can be exponential in general, Section 5).
func AllRCKs(ctx schema.Pair, sigma []MD, target Target, cm *CostModel) ([]Key, error) {
	return FindRCKs(ctx, sigma, target, 1<<30, cm)
}

// Subsumes reports whether key k makes key other redundant as a
// matching rule: k is no longer than other and every conjunct of k has a
// counterpart in other on the same pair whose operator is at least as
// strong (identical, or equality — which entails every similarity
// operator). Any tuple pair matching other's LHS then matches k's LHS,
// so applying both rules finds exactly what applying k alone finds.
//
// This is strictly finer than the paper's ⪯ order (Section 2.2), which
// compares operators by identity: ([A],[B] ‖ [≈]) subsumes
// ([A],[B] ‖ [=]) here but the two are ⪯-incomparable there.
func (k Key) Subsumes(other Key) bool {
	if len(k.Conjuncts) > len(other.Conjuncts) {
		return false
	}
	for _, c := range k.Conjuncts {
		found := false
		for _, d := range other.Conjuncts {
			if d.Pair == c.Pair && (d.OpName() == c.OpName() || d.OpName() == similarity.EqName) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// PruneSubsumed removes keys made redundant by another key in the list
// under operator subsumption (see Key.Subsumes). Earlier keys win ties;
// the relative order of survivors is preserved. Matching with the pruned
// set finds exactly the pairs the full set finds, with fewer rule
// evaluations — the practical selection step used when picking the
// "top k" keys for a matcher (DESIGN.md §5).
func PruneSubsumed(keys []Key) []Key {
	removed := make([]bool, len(keys))
	for i := range keys {
		if removed[i] {
			continue
		}
		for j := range keys {
			if i == j || removed[j] || removed[i] {
				continue
			}
			if keys[i].Subsumes(keys[j]) && !(keys[j].Subsumes(keys[i]) && j < i) {
				removed[j] = true
			}
		}
	}
	out := make([]Key, 0, len(keys))
	for i, k := range keys {
		if !removed[i] {
			out = append(out, k)
		}
	}
	return out
}
