package main

import (
	"fmt"
	"os"
	"time"

	"mdmatch/internal/core"
	"mdmatch/internal/experiments"
	"mdmatch/internal/gen"
	"mdmatch/internal/matching"
	"mdmatch/internal/neighborhood"
	"mdmatch/internal/schema"
	"mdmatch/internal/semantics"
)

// paperRoundSeconds is the nominal length of one round of a paper_*
// workload; -seconds / paperRoundSeconds rounds make a run.
const paperRoundSeconds = 2.5

// The paper's batch pipeline (findRCKs -> enforce the MDs -> link with
// and without RCKs) is three workloads, one per stage, so that each
// stage's time is gated on its own: folded into one round, a stage that
// is a third of the round could get 60% slower inside a 25% bound. All
// three run in-process through internal/experiments and the packages it
// drives, with no HTTP, and every round generates the whole pipeline's
// inputs afresh (that is the set-up sample) before running its stage.

// paperInputs are the generated inputs of the pipeline.
type paperInputs struct {
	ctx    schema.Pair
	target core.Target
	sigmas [][]core.MD        // paper_rck: one generated Σ per findRCKs call
	eds    *gen.Dataset       // paper_enforce
	setup  *experiments.Setup // paper_linkage: data, RCKs, shared candidates
}

func genPaperInputs(sz sizes, seed int64) (*paperInputs, error) {
	in := &paperInputs{}
	in.ctx, in.target = gen.ScalabilitySchemas(sz.RCKYLen, 6)
	in.sigmas = make([][]core.MD, sz.RCKCalls)
	for i := range in.sigmas {
		in.sigmas[i] = gen.RandomMDs(in.ctx, in.target, gen.MDGenConfig{Seed: seed*1000 + int64(i), Count: sz.RCKCard})
	}
	ecfg := gen.DefaultConfig(sz.EnforceK)
	ecfg.Seed = seed
	var err error
	if in.eds, err = gen.Generate(ecfg); err != nil {
		return nil, err
	}
	in.setup, err = experiments.NewSetup(sz.LinkageK, seed)
	return in, err
}

// paperExact are the readings of a round that are pure functions of
// its inputs: every round of a run, and every run of a seed, must agree
// on them. (The F1 scores are not among them: the EM sample of the
// Fellegi–Sunter matcher follows map iteration order.) A stage fills
// the fields it produces.
type paperExact struct {
	rcksFound, applications, passes, compared int
	pairsExamined, lhsEvaluations             int64
}

// stageRound is what one round of one stage measured.
type stageRound struct {
	opMS  []float64 // the time of each op of the round
	exact paperExact
	// check holds the stage's outputs to their floors; layer prints its
	// per-layer metrics (traced run). Both are called for the first round.
	check func(o *outcome)
	layer func(o *outcome)
}

// rckStage is workload paper_rck (Fig. 8): findRCKs over each generated
// Σ; one op is one call.
func rckStage(in *paperInputs, sz sizes) (stageRound, error) {
	var r stageRound
	for _, sigma := range in.sigmas {
		t := time.Now()
		keys, err := core.FindRCKs(in.ctx, sigma, in.target, sz.RCKM, nil)
		if err != nil {
			return r, err
		}
		r.opMS = append(r.opMS, ms(time.Since(t)))
		r.exact.rcksFound += len(keys)
	}
	r.check = func(o *outcome) {
		if r.exact.rcksFound == 0 {
			o.violate("findRCKs found no key")
		}
	}
	r.layer = func(o *outcome) {
		o.set("core.rck_s", sum(r.opMS)/1000)
		o.set("core.findrcks_ms_per_call", mean(r.opMS))
		o.set("core.rcks_found", float64(r.exact.rcksFound))
	}
	return r, nil
}

// enforceStage is workload paper_enforce (the chase of Section 3):
// semantics.Enforce of the 7 holder MDs; one op is the whole chase.
func enforceStage(in *paperInputs, _ sizes) (stageRound, error) {
	var r stageRound
	t := time.Now()
	res, err := semantics.Enforce(in.eds.Pair(), gen.HolderMDs(in.eds.Ctx))
	if err != nil {
		return r, err
	}
	r.opMS = []float64{ms(time.Since(t))}
	r.exact = paperExact{applications: res.Applications, passes: res.Passes,
		pairsExamined: res.Stats.PairsExamined, lhsEvaluations: res.Stats.LHSEvaluations}
	r.check = func(o *outcome) {
		if res.Applications == 0 {
			o.violate("Enforce applied no MD to dirty data")
		}
	}
	r.layer = func(o *outcome) {
		o.set("semantics.enforce_s", r.opMS[0]/1000)
		o.set("semantics.pairs_examined", float64(res.Stats.PairsExamined))
		o.set("semantics.lhs_evaluations", float64(res.Stats.LHSEvaluations))
		o.set("semantics.applications", float64(res.Applications))
		o.set("semantics.passes", float64(res.Passes))
	}
	return r, nil
}

// linkageStage is workload paper_linkage (Figs. 9, 10): FS, FSrck, SN
// and SNrck over the shared windowed candidates; one op is all four.
func linkageStage(in *paperInputs, _ sizes) (stageRound, error) {
	var r stageRound
	var fs, fsrck, sn, snrck experiments.MatchRow
	var err error
	setup := in.setup
	t := time.Now()
	if fs, err = setup.RunFS("FS", setup.FSFields()); err != nil {
		return r, err
	}
	if fsrck, err = setup.RunFS("FSrck", setup.FSrckFields()); err != nil {
		return r, err
	}
	if sn, err = setup.RunSN("SN", matching.NewRuleSet(neighborhood.BaselineRules(setup.Dataset.Ctx, setup.Target)...)); err != nil {
		return r, err
	}
	if snrck, err = setup.RunSN("SNrck", matching.NewRuleSet(setup.RCKs...)); err != nil {
		return r, err
	}
	r.opMS = []float64{ms(time.Since(t))}
	r.exact.compared = snrck.Compared
	r.check = func(o *outcome) {
		if fsrck.F1 < f1FloorFSrck {
			o.violate("FSrck F1 %.3f under the floor %.2f", fsrck.F1, f1FloorFSrck)
		}
		if snrck.F1 < f1FloorSNrck {
			o.violate("SNrck F1 %.3f under the floor %.2f", snrck.F1, f1FloorSNrck)
		}
	}
	r.layer = func(o *outcome) {
		o.set("matching.linkage_s", r.opMS[0]/1000)
		o.set("fellegi.fs_s", fs.Seconds)
		o.set("fellegi.fsrck_s", fsrck.Seconds)
		o.set("neighborhood.sn_s", sn.Seconds)
		o.set("neighborhood.snrck_s", snrck.Seconds)
		o.set("matching.compared_pairs", float64(snrck.Compared))
		o.set("matching.f1_fsrck", fsrck.F1)
		o.set("matching.f1_snrck", snrck.F1)
	}
	return r, nil
}

// paperWorkload makes the run function of one stage. Every round of a
// run sees the same generated inputs.
func paperWorkload(name string, stage func(*paperInputs, sizes) (stageRound, error)) func(*env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		o := newOutcome(name, e.traced)
		var setupS, perS []float64
		var opMS [][]float64
		var first stageRound
		for i := 0; i < e.rounds(paperRoundSeconds, true); i++ {
			t := time.Now()
			in, err := genPaperInputs(e.sz, e.seed)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(t).Seconds())
			r, err := stage(in, e.sz)
			if err != nil {
				return nil, err
			}
			o.Attempted += len(r.opMS)
			if i == 0 {
				first = r
				r.check(o)
			} else if r.exact != first.exact {
				o.violate("round %d differs from round 0 on an exact count: %+v vs %+v", i, r.exact, first.exact)
			}
			perS = append(perS, 1000*float64(len(r.opMS))/sum(r.opMS))
			opMS = append(opMS, r.opMS)
		}
		if !e.traced {
			mb, err := vmHWM(os.Getpid())
			if err != nil {
				return nil, fmt.Errorf("reading the harness's own VmHWM: %w", err)
			}
			o.endToEndFrom(setupS, perS, []float64{mb}, opMS)
			return o, nil
		}
		first.layer(o)
		o.set("gen.generate_s", setupS[0])
		return o, nil
	}
}
