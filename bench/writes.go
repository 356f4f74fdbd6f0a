package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mdmatch/internal/engine"
	"mdmatch/internal/stream"
)

// addResp is cmd/matchd's POST /records reply.
type addResp struct {
	ID           int   `json:"id"`
	Cluster      int   `json:"cluster"`
	AppliedMDs   []int `json:"applied_mds"`
	Applications int   `json:"applications"`
	Passes       int   `json:"passes"`
}

func (a addResp) equals(id int, r stream.InsertResult) bool {
	return a.ID == id && a.Cluster == r.Cluster && sameInts(a.AppliedMDs, r.AppliedMDs) &&
		a.Applications == r.Applications && a.Passes == r.Passes
}

// ingestReference replays recs through AddClustered on a stack (the
// call the POST /records handler makes) and returns every result plus
// each inserted id's final cluster.
type ingestReference struct {
	results  []stream.InsertResult
	clusters map[int]stream.Cluster
	stats    stream.Stats
}

func referenceIngest(s *stack, recs []ingestRecord) (*ingestReference, error) {
	ref := &ingestReference{clusters: map[int]stream.Cluster{}}
	for _, r := range recs {
		res, err := s.eng.AddClustered(r.ID, r.Values)
		if err != nil {
			return nil, fmt.Errorf("reference insert %d: %w", r.ID, err)
		}
		ref.results = append(ref.results, res)
	}
	for _, r := range recs {
		cl, ok := s.enf.ClusterOf(r.ID)
		if !ok {
			return nil, fmt.Errorf("reference lost record %d", r.ID)
		}
		ref.clusters[r.ID] = cl
	}
	ref.stats = s.enf.Stats()
	return ref, nil
}

// clusterPrecision is the share of same-cluster pairs among the
// ingested records that the generator says are the same holder.
func clusterPrecision(recs []ingestRecord, clusterOf map[int]stream.Cluster) float64 {
	holder := map[int]int{}
	for _, r := range recs {
		holder[r.ID] = r.Holder
	}
	same, pairs := 0, 0
	for _, r := range recs {
		for _, m := range clusterOf[r.ID].Members {
			h, ingested := holder[m]
			if !ingested || m <= r.ID {
				continue
			}
			pairs++
			if h == r.Holder {
				same++
			}
		}
	}
	if pairs == 0 {
		return 1
	}
	return float64(same) / float64(pairs)
}

// runServeIngest is workload serve_ingest: durable POST /records from
// one client, then SIGKILL, restart on the same directory and recovery.
// One client, so the firing sequence, every response and every count
// repeat exactly from run to run.
func runServeIngest(e *env) (*outcome, error) {
	o := newOutcome("serve_ingest", e.traced)
	refStack, err := buildStack(stackOpts{k: e.k, withStream: true})
	if err != nil {
		return nil, err
	}
	base := refStack.ds.Credit.Len()
	baseStats := refStack.enf.Stats()
	recs, err := ingestRecords(e.seed, e.sz.IngestOps, base)
	if err != nil {
		return nil, err
	}
	attrs := refStack.ds.Credit.Rel.AttrNames()
	ops := make([]op, len(recs))
	for i, r := range recs {
		ops[i] = op{Path: "/records", Body: insertBody(attrs, r)}
	}
	ref, err := referenceIngest(refStack, recs)
	if err != nil {
		return nil, err
	}
	if p := clusterPrecision(recs, ref.clusters); p < clusterPrecisionMin {
		o.violate("ingested-cluster precision %.3f under the floor %.2f", p, clusterPrecisionMin)
	}

	var setupS, rps, rss, recoveryS []float64
	var latMS [][]float64
	for r := 0; r < e.rounds(roundSeconds, true); r++ {
		dir, err := e.freshDir("ingest-data")
		if err != nil {
			return nil, err
		}
		srv, err := startServer(e, dir, 1, false)
		if err != nil {
			return nil, err
		}
		var acked []int
		pre := map[int]clusterDoc{}
		err = func() error {
			defer srv.kill()
			if err := checkPlan(o, srv, refStack); err != nil {
				return err
			}
			if err := srv.awaitFirstSnapshot(); err != nil {
				return err
			}
			var before, after scrape
			if e.traced {
				if before, err = srv.scrape(); err != nil {
					return err
				}
			}
			settle()
			res, wall := closedLoop(srv.client, srv.base, ops, 1)
			if e.traced {
				if after, err = srv.scrape(); err != nil {
					return err
				}
			}
			st, err := srv.stats()
			if err != nil {
				return err
			}
			mb, err := srv.rssPeakMB()
			if err != nil {
				return err
			}
			o.Attempted += len(res)
			o.Failed += countFailed(res)
			for i, rr := range res {
				if !rr.ok() {
					continue
				}
				acked = append(acked, recs[i].ID)
				var got addResp
				if err := json.Unmarshal(rr.Body, &got); err != nil || !got.equals(recs[i].ID, ref.results[i]) {
					o.violate("insert %d: response %s differs from the in-process result %+v", recs[i].ID, rr.Body, ref.results[i])
				}
			}
			// Exact counters: the chase did the reference's work, no more.
			if st.Stream.Chase.PairsExamined != ref.stats.Chase.PairsExamined ||
				st.Stream.Chase.RuleFirings != ref.stats.Chase.RuleFirings ||
				st.Stream.Applications != ref.stats.Applications || st.Stream.Passes != ref.stats.Passes {
				o.violate("/stats stream counters %+v differ from the reference %+v", st.Stream, ref.stats)
			}
			for _, id := range acked {
				cl, err := srv.cluster(id)
				if err != nil {
					return err
				}
				want := ref.clusters[id]
				if cl.Cluster != want.ID || !sameInts(cl.Members, want.Members) {
					o.violate("record %d: cluster %d %v, reference %d %v", id, cl.Cluster, cl.Members, want.ID, want.Members)
				}
				pre[id] = cl
			}
			if e.traced {
				ingestCounts(o, before, after, st, baseStats, len(acked), dir)
			}
			setupS = append(setupS, srv.setup.Seconds())
			rps = append(rps, float64(len(res))/wall.Seconds())
			rss = append(rss, mb)
			latMS = append(latMS, latenciesMS(res))
			return nil
		}()
		if err != nil {
			return nil, err
		}

		// Durability gate: the process was SIGKILLed above; restart on the
		// same directory and hold it to everything it acknowledged.
		srv2, err := startServer(e, dir, 1, false)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		err = func() error {
			defer srv2.kill()
			recoveryS = append(recoveryS, srv2.setup.Seconds())
			st, err := srv2.stats()
			if err != nil {
				return err
			}
			if want := base + len(acked); st.Stream.Records != want {
				o.violate("after recovery /stats records %d, want base %d + acknowledged %d", st.Stream.Records, base, len(acked))
			}
			for _, id := range acked {
				cl, err := srv2.cluster(id)
				if err != nil {
					o.violate("after recovery record %d: %v", id, err)
					continue
				}
				if cl.Cluster != pre[id].Cluster || !sameInts(cl.Members, pre[id].Members) {
					o.violate("after recovery record %d: cluster %d %v, before the kill %d %v",
						id, cl.Cluster, cl.Members, pre[id].Cluster, pre[id].Members)
				}
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if o.Failed > 0 {
		o.violate("%d of %d requests failed", o.Failed, o.Attempted)
	}
	if !e.traced {
		o.endToEndFrom(setupS, rps, rss, latMS)
		return o, nil
	}
	httpP50 := httpLatency(o, "insert", latMS[0])
	o.set("store.recovery_s", median(recoveryS))
	if err := tracedIngest(e, o, recs, ref, httpP50); err != nil {
		return nil, err
	}
	return o, nil
}

// ingestCounts turns /metrics and /stats deltas of the untraced HTTP
// run into the stream and store counts.
func ingestCounts(o *outcome, before, after scrape, st statsDoc, base stream.Stats, inserts int, dir string) {
	n := float64(inserts)
	pairs := after.delta(before, "mdmatch_stream_pairs_examined_total")
	o.set("stream.pairs_examined_per_insert", ratio(pairs, n))
	o.set("stream.lhs_evals_per_insert", ratio(float64(st.Stream.Chase.LHSEvaluations-base.Chase.LHSEvaluations), n))
	o.set("stream.applications_per_insert", ratio(after.delta(before, "mdmatch_stream_applications_total"), n))
	o.set("stream.passes_per_insert", ratio(after.delta(before, "mdmatch_stream_passes_total"), n))
	o.set("stream.fired_per_examined", ratio(after.delta(before, "mdmatch_stream_rule_firings_total"), pairs))
	o.set("stream.cache_miss_ratio", ratio(
		after.delta(before, "mdmatch_stream_verdict_cache_misses_total"),
		after.delta(before, "mdmatch_stream_verdict_cache_lookups_total")))
	o.set("store.wal_bytes_per_record", ratio(after.delta(before, "mdmatch_store_append_bytes_total"),
		after.delta(before, "mdmatch_store_appends_total")))
	snaps := after.delta(before, "mdmatch_store_snapshot_duration_seconds_count")
	o.set("store.snapshots", snaps)
	o.set("store.snapshot_s", ratio(after.delta(before, "mdmatch_store_snapshot_duration_seconds_sum"), snaps))
	o.set("store.snapshot_bytes_per_record", ratio(after["mdmatch_store_snapshot_size_bytes"], after["mdmatch_stream_records"]))
	if b, err := dirBytes(dir); err == nil {
		o.set("store.disk_bytes_per_record", ratio(float64(b), after["mdmatch_stream_records"]))
	}
	httpCounts(o, before, after, inserts)
}

// tracedIngest is the traced run of serve_ingest: the same records
// through AddClusteredCtx on a durable in-process stack whose
// filesystem is the timing wrapper, each insert under a root span,
// snapshots taken at the daemon's byte threshold. It ends with the
// in-process durability gate: unflushed bytes are discarded, the
// directory is reopened, and every acknowledged insert must be there.
func tracedIngest(e *env, o *outcome, recs []ingestRecord, ref *ingestReference, httpP50MS float64) error {
	dir, err := e.freshDir("ingest-inproc")
	if err != nil {
		return err
	}
	fs := newTimedFS()
	s, err := buildStack(stackOpts{k: e.k, withStream: true, dataDir: dir, fs: fs})
	if err != nil {
		return err
	}
	buildTimings(o, s)
	base := s.ds.Credit.Len()
	loaded := fs.counters()
	tr := newTracer(2 * len(recs))
	var payload float64
	snapshots := 0
	for i, r := range recs {
		var res stream.InsertResult
		err := traced(tr, "bench.insert", func(ctx context.Context) (err error) {
			res, err = s.eng.AddClusteredCtx(ctx, r.ID, r.Values)
			return err
		})
		if err != nil {
			return fmt.Errorf("traced insert %d: %w", r.ID, err)
		}
		if !sameResult(res, ref.results[i]) {
			o.violate("traced insert %d: %+v differs from the reference %+v", r.ID, res, ref.results[i])
		}
		for _, v := range r.Values {
			payload += float64(len(v))
		}
		// The daemon's snapshot loop fires on a one-second tick once this
		// many WAL bytes accumulate; here the trigger is checked after
		// every insert so the count repeats exactly.
		if s.st.BytesSinceSnapshot() >= snapshotWALBytes {
			if err := traced(tr, "bench.snapshot", func(ctx context.Context) error {
				_, err := s.eng.SnapshotCtx(ctx)
				return err
			}); err != nil {
				return fmt.Errorf("traced snapshot: %w", err)
			}
			snapshots++
		}
	}
	ingested := fs.counters()
	traces := tr.Traces()
	b := newLayerBudget()
	b.add(traces, "bench.insert")
	n := float64(len(recs))

	streamUS := b.selfUS("stream.insert")
	o.set("stream.insert_us_p50", quantile(streamUS, 0.5))
	o.set("stream.insert_us_p99", p99OrHighest(streamUS))
	// Slope of chase time on corpus size, in trace (= arrival) order.
	xs := make([]float64, len(b.self["stream.insert"]))
	ys := make([]float64, len(xs))
	for i, v := range b.self["stream.insert"] {
		xs[i] = float64(base+i) / 1000
		ys[i] = v * 1e6
	}
	o.set("stream.insert_us_per_1k_records", slope(xs, ys))
	o.set("engine.index_add_us_p50", quantile(b.selfUS("engine.insert"), 0.5))
	o.set("store.append_us_p50", quantile(b.selfUS("wal.append"), 0.5))
	o.set("trace.attributed_pct", b.attributedPct())
	if pct := b.attributedPct(); pct < 90 {
		o.violate("traced insert pass attributes %.1f%% of its time to named layers, under 90%%", pct)
	}
	inprocP50US := quantile(sortedCopy(scale(b.total, 1e6)), 0.5)
	o.set("http.insert_overhead_us_p50", httpP50MS*1000-inprocP50US)

	// fs: what the ingest phase (inserts plus the snapshots they set
	// off) pushed through the device boundary.
	syncUS := sortedCopy(scale(ingested.syncS[len(loaded.syncS):], 1e6))
	o.set("fs.sync_us_p50", quantile(syncUS, 0.5))
	o.set("fs.sync_us_p99", p99OrHighest(syncUS))
	o.set("fs.syncs_per_insert", float64(len(syncUS))/n)
	o.set("fs.writes_per_insert", float64(ingested.writes-loaded.writes)/n)
	o.set("fs.write_amplification", ratio(float64(ingested.writeBytes-loaded.writeBytes), payload))
	o.Samples["stream.insert"] = len(streamUS)
	o.Samples["fs.sync"] = len(syncUS)
	o.Samples["inproc.snapshots"] = snapshots

	// In-process durability gate.
	pre := map[int]stream.Cluster{}
	for _, r := range recs {
		pre[r.ID], _ = s.enf.ClusterOf(r.ID)
	}
	snapLSN, lsn := s.st.SnapshotLSN(), s.st.LSN()
	// No Close: a crash does not flush. The abandoned store never writes
	// again; its descriptors go with the process.
	if _, err := fs.crash(); err != nil {
		return err
	}
	fs2 := newTimedFS()
	s2, err := buildStack(stackOpts{k: e.k, withStream: true, dataDir: dir, fs: fs2})
	if err != nil {
		return fmt.Errorf("reopening after the simulated crash: %w", err)
	}
	defer s2.close()
	if !s2.recovered {
		o.violate("reopened directory came up empty")
	}
	if got, want := s2.enf.Len(), base+len(recs); got != want {
		o.violate("after the simulated crash: %d records, want %d", got, want)
	}
	for _, r := range recs {
		cl, ok := s2.enf.ClusterOf(r.ID)
		if !ok || cl.ID != pre[r.ID].ID || !sameInts(cl.Members, pre[r.ID].Members) {
			o.violate("after the simulated crash record %d: cluster %+v, before %+v", r.ID, cl, pre[r.ID])
		}
	}
	load := fs2.counters().snapLoadS
	o.set("store.snapshot_load_s", load)
	o.set("stream.replay_s", s2.recoverS-load)
	o.set("store.replayed_records", float64(lsn-snapLSN))
	return writeTraces(filepath.Join(e.traceDir, "trace-serve_ingest.json"), traces)
}

func sameResult(a, b stream.InsertResult) bool {
	return a.Cluster == b.Cluster && sameInts(a.AppliedMDs, b.AppliedMDs) &&
		a.Applications == b.Applications && a.Passes == b.Passes
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// mixedWarm is how many closed-loop /match requests warm a freshly
// booted daemon before the open-loop schedule starts.
const mixedWarm = 300

// mixedWindows is how many equal windows a round's schedule is cut
// into for the readings a single stall can spoil (send lateness, the
// read tail, the share of requests over their limit): the run reports
// the median window.
const mixedWindows = 2

// runServeMixed is workload serve_mixed: an open-loop Poisson schedule
// of /match beside durable POST /records. Latency runs from each
// request's due time.
func runServeMixed(e *env) (*outcome, error) {
	o := newOutcome("serve_mixed", e.traced)
	ref, err := buildStack(stackOpts{k: e.k})
	if err != nil {
		return nil, err
	}
	n := e.sz.MixedOps
	qs, err := matchQueries(ref.ds, e.seed, n+mixedWarm)
	if err != nil {
		return nil, err
	}
	recs, err := ingestRecords(e.seed, int(e.sz.MixedInsert*float64(n)+0.5), ref.ds.Credit.Len())
	if err != nil {
		return nil, err
	}
	mAttrs := ref.ds.Billing.Rel.AttrNames()
	cAttrs := ref.ds.Credit.Rel.AttrNames()
	warmOps := make([]op, mixedWarm)
	for i := range warmOps {
		warmOps[i] = op{Path: "/match", Body: matchBody(mAttrs, qs[i].Values)}
	}
	// Which ops are inserts is drawn from the seed too, but their number
	// is exact (MixedInsert of n): the read tail this workload exists to
	// measure is made of collisions with inserts, and a binomial count
	// would move it by 9% from seed to seed on its own.
	rnd := rand.New(rand.NewSource(e.seed + 7))
	isInsert := make([]bool, n)
	for _, i := range rnd.Perm(n)[:int(e.sz.MixedInsert*float64(n)+0.5)] {
		isInsert[i] = true
	}
	ops := make([]op, n)
	queryOf := make([]int, n) // index into qs, or -1 for an insert
	nextQ, nextR := mixedWarm, 0
	for i := range ops {
		if isInsert[i] {
			ops[i] = op{Path: "/records", Body: insertBody(cAttrs, recs[nextR])}
			queryOf[i] = -1
			nextR++
		} else {
			ops[i] = op{Path: "/match", Body: matchBody(mAttrs, qs[nextQ].Values)}
			queryOf[i] = nextQ
			nextQ++
		}
	}
	due := poissonSchedule(e.seed, e.sz.MixedRate, n)
	// Read-only reference: inserts only add records, so every answer of
	// the mixed run must contain the answer the unmodified corpus gives.
	want := make(map[int]engine.Result, n)
	for _, qi := range queryOf {
		if qi >= 0 {
			if want[qi], err = ref.eng.MatchOne(qs[qi].Values); err != nil {
				return nil, err
			}
		}
	}

	offered := float64(n) / due[n-1].Seconds()
	var setupS, rpsAchieved, rss []float64         // per round
	var matchMS [][]float64                        // per round
	var lateP99MS, matchP99MS, missRatio []float64 // per window
	var insertMS []float64                         // of all rounds
	// Every round is an HTTP round, traced or not: the per-layer numbers
	// of this workload are tails and generator validity, which want the
	// median round as much as the gated ones do.
	for r := 0; r < e.rounds(roundSeconds, false); r++ {
		dir, err := e.freshDir("mixed-data")
		if err != nil {
			return nil, err
		}
		srv, err := startServer(e, dir, e.sz.MixedConns, true)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer srv.kill()
			if err := checkPlan(o, srv, ref); err != nil {
				return err
			}
			if err := srv.awaitFirstSnapshot(); err != nil {
				return err
			}
			closedLoop(srv.client, srv.base, warmOps, e.sz.MixedConns)
			var before scrape
			if e.traced {
				if before, err = srv.scrape(); err != nil {
					return err
				}
			}
			// Keep the generator out of its own way for the length of the
			// schedule: no collection of its garbage (a few MB of replies),
			// and one more P than cores, because the dispatcher sits in
			// nanosleep holding one (see preciseSleep).
			settle()
			gc := debug.SetGCPercent(-1)
			procs := runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1)
			res, wall := openLoop(httpSender(srv.client, srv.base, ops), due, e.sz.MixedConns, time.Now, preciseSleep)
			runtime.GOMAXPROCS(procs)
			debug.SetGCPercent(gc)
			if e.traced {
				after, err := srv.scrape()
				if err != nil {
					return err
				}
				engineCounts(o, before, after, len(res))
			}
			mb, err := srv.rssPeakMB()
			if err != nil {
				return err
			}
			o.Attempted += len(res)
			o.Failed += countFailed(res)
			var roundMatchMS []float64
			for i, rr := range res {
				if queryOf[i] < 0 {
					insertMS = append(insertMS, ms(rr.Latency))
					continue
				}
				roundMatchMS = append(roundMatchMS, ms(rr.Latency))
				if !rr.ok() {
					continue
				}
				var got matchResp
				if err := json.Unmarshal(rr.Body, &got); err != nil || !supersetInts(got.Matches, want[queryOf[i]].Matches) {
					o.violate("op %d: matches %s do not contain the read-only reference %v", i, rr.Body, want[queryOf[i]].Matches)
				}
			}
			matchMS = append(matchMS, roundMatchMS)
			// Tails and lateness are read per window of the schedule.
			for w := 0; w < mixedWindows; w++ {
				lo, hi := w*len(res)/mixedWindows, (w+1)*len(res)/mixedWindows
				var lateMS, winMatchMS []float64
				misses := 0
				for i := lo; i < hi; i++ {
					limit := insertLimitMS
					if queryOf[i] >= 0 {
						limit = matchLimitMS
						winMatchMS = append(winMatchMS, ms(res[i].Latency))
					}
					lateMS = append(lateMS, ms(res[i].Late))
					if !res[i].ok() || ms(res[i].Latency) > limit {
						misses++
					}
				}
				lateP99MS = append(lateP99MS, p99OrHighest(sortedCopy(lateMS)))
				matchP99MS = append(matchP99MS, p99OrHighest(sortedCopy(winMatchMS)))
				missRatio = append(missRatio, ratio(float64(misses), float64(hi-lo)))
			}
			setupS = append(setupS, srv.setup.Seconds())
			rpsAchieved = append(rpsAchieved, float64(len(res)-countFailed(res))/wall.Seconds())
			rss = append(rss, mb)
			e.logf("serve_mixed round %d: achieved %.1f of %.1f offered req/s; per window: sent late p99 %.3f ms, over-limit share %.4f",
				r, rpsAchieved[r], offered, lateP99MS[r*mixedWindows:], missRatio[r*mixedWindows:])
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if o.Failed > 0 {
		o.violate("%d of %d requests failed", o.Failed, o.Attempted)
	}
	// Generator validity (ISSUE 11): a run whose generator sent late or
	// did not keep its schedule measured the generator, and says so. The
	// readings are medians, of the windows and of the rounds, like every
	// other: one stall of the shared box (a descheduled vCPU holds up a
	// hundred requests) spoils the window it falls in and does not
	// condemn the run; a generator that is late window after window does.
	late, achieved := median(lateP99MS), median(rpsAchieved)
	valid := late <= lateLimitMS && achieved >= achievedShareMin*offered
	if !valid {
		o.violate("invalid load generation: sent late p99 %.3f ms (limit %g ms), achieved %.1f of %.1f offered req/s (at least %g)",
			late, lateLimitMS, achieved, offered, achievedShareMin)
	}
	if miss := median(missRatio); miss > sloMissMax {
		o.violate("%.4f of the requests failed or finished over their limit (match %g ms, insert %g ms from due time), more than %g",
			miss, matchLimitMS, insertLimitMS, sloMissMax)
	}
	if !e.traced {
		o.endToEndFrom(setupS, rpsAchieved, rss, matchMS)
		return o, nil
	}
	o.set("loadgen.late_p99_ms", late)
	o.set("loadgen.offered_rps", offered)
	o.set("loadgen.achieved_rps", achieved)
	if valid {
		o.set("loadgen.valid", 1)
	}
	var p50s []float64
	for _, lat := range matchMS {
		p50s = append(p50s, quantile(sortedCopy(lat), 0.5))
	}
	o.set("http.match_p50_ms", median(p50s))
	o.set("http.match_p99_ms", median(matchP99MS))
	o.Samples["http.match"] = len(matchMS[0])
	httpLatency(o, "insert", insertMS)
	o.set("http.slo_miss_ratio", median(missRatio))
	return o, nil
}
