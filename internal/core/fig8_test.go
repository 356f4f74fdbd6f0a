package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mdmatch/internal/core"
	"mdmatch/internal/gen"
)

// fig8Keys runs findRCKs on the Figure 8 generator at the given sizes and
// renders the keys in the order they were found.
func fig8Keys(tb testing.TB, yLen, card, m int, seed int64) (string, []core.MD, []core.Key) {
	tb.Helper()
	ctx, target := gen.ScalabilitySchemas(yLen, 6)
	sigma := gen.RandomMDs(ctx, target, gen.MDGenConfig{Seed: seed, Count: card})
	keys, err := core.FindRCKs(ctx, sigma, target, m, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	for i, k := range keys {
		fmt.Fprintf(&b, "seed %d key %02d %s\n", seed, i, k)
	}
	return b.String(), sigma, keys
}

// TestFindRCKsFig8Golden pins the key sequence findRCKs returns on the
// Figure 8 shape at smoke scale (|Y| 6, card 300, m 20, seeds 1-5), as
// recorded from the implementation that compiled Σ once per closure.
// The order matters: the cost model's diversity counters make every key
// depend on the ones before it.
func TestFindRCKsFig8Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/findrcks_fig8.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		s, _, _ := fig8Keys(t, 6, 300, 20, seed)
		got.WriteString(s)
	}
	if got.String() != string(want) {
		t.Fatalf("findRCKs key sequence changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestApplyPreservesDeducibility is Lemmas 3.1-3.3 as a property: for a
// key γ that Σ deduces and any φ ∈ Σ, apply(γ, φ) is deduced too (φ
// identifies the pairs apply drops, and augmentation keeps the rest).
// findRCKs still re-checks every applied key at run time; this test is
// where the lemma is shown to make that check always pass.
func TestApplyPreservesDeducibility(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, sigma, keys := fig8Keys(t, 6, 120, 8, seed)
		gammas := append([]core.Key{core.IdentityKey(keys[0].Ctx, keys[0].Target)}, keys...)
		for _, g := range gammas {
			if ok, err := core.DeduceKey(sigma, g); err != nil || !ok {
				t.Fatalf("seed %d: γ = %s is not deduced (err %v)", seed, g, err)
			}
			for i, phi := range sigma {
				cand := core.Apply(g, phi)
				ok, err := core.DeduceKey(sigma, cand)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("seed %d: apply(%s, Σ[%d]) = %s is not deduced", seed, g, i, cand)
				}
			}
		}
	}
}

// rckSink keeps the benchmarked calls from being optimised away.
var rckSink []core.Key

// BenchmarkFindRCKsFig8 is one findRCKs call at the paper_rck workload's
// sizes: card(Σ) 2000, m 50, |Y| 12 (Figure 8(b)'s largest point).
func BenchmarkFindRCKsFig8(b *testing.B) {
	ctx, target := gen.ScalabilitySchemas(12, 6)
	sigma := gen.RandomMDs(ctx, target, gen.MDGenConfig{Seed: 7000, Count: 2000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys, err := core.FindRCKs(ctx, sigma, target, 50, nil)
		if err != nil {
			b.Fatal(err)
		}
		rckSink = keys
	}
}
