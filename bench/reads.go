package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"time"

	"mdmatch/internal/engine"
	"mdmatch/internal/gen"
	"mdmatch/internal/trace"
)

// matchResp is cmd/matchd's /match reply for one record.
type matchResp struct {
	Matches    []int `json:"matches"`
	Candidates int   `json:"candidates"`
	Compared   int   `json:"compared"`
}

type batchResp struct {
	Results []matchResp `json:"results"`
}

func (m matchResp) equals(r engine.Result) bool {
	return sameInts(m.Matches, r.Matches) && m.Candidates == r.Candidates && m.Compared == r.Compared
}

// checkPlan holds the daemon to the reference plan and corpus size.
func checkPlan(o *outcome, srv *server, ref *stack) error {
	st, err := srv.stats()
	if err != nil {
		return err
	}
	if want := ref.plan.String(); st.Plan != want {
		o.violate("/stats plan %q, reference %q", st.Plan, want)
	}
	if want := ref.ds.Credit.Len(); st.IndexedRecords != want {
		o.violate("/stats indexed_records %d, reference %d", st.IndexedRecords, want)
	}
	return nil
}

// recallOfVariants is the share of noisy-variant queries whose answer
// holds at least one credit record of the query's true holder.
func recallOfVariants(ds *gen.Dataset, qs []matchQuery, answers [][]int) float64 {
	hit, total := 0, 0
	for i, q := range qs {
		if q.Holder < 0 {
			continue
		}
		total++
		for _, id := range answers[i] {
			if ds.CreditHolder[id] == q.Holder {
				hit++
				break
			}
		}
	}
	return ratio(float64(hit), float64(total))
}

// engineCounts turns /metrics deltas over a measured window into the
// engine and HTTP layer counts.
func engineCounts(o *outcome, before, after scrape, requests int) {
	q := after.delta(before, "mdmatch_engine_queries_total")
	compared := after.delta(before, "mdmatch_engine_compared_total")
	o.set("engine.candidates_per_query", ratio(after.delta(before, "mdmatch_engine_candidates_total"), q))
	o.set("engine.compared_per_query", ratio(compared, q))
	o.set("engine.matches_per_compared", ratio(after.delta(before, "mdmatch_engine_matched_total"), compared))
	o.set("engine.pair_evals_resolved_ratio", ratio(
		after.delta(before, "mdmatch_engine_pair_resolves_total"),
		after.delta(before, "mdmatch_engine_pair_evals_total")))
	httpCounts(o, before, after, requests)
}

// httpCounts derives the HTTP-surface and Go-runtime readings.
func httpCounts(o *outcome, before, after scrape, requests int) {
	n := float64(requests)
	o.set("http.req_bytes_mean", ratio(after.delta(before, "matchd_http_request_body_bytes_total"), n))
	o.set("http.resp_bytes_mean", ratio(after.delta(before, "matchd_http_response_body_bytes_total"), n))
	o.set("http.rejected_total",
		after.delta(before, "matchd_http_requests_total{code=4xx}")+
			after.delta(before, "matchd_http_requests_total{code=5xx}"))
	o.set("go.heap_alloc_mb", after["mdmatch_runtime_heap_alloc_bytes"]/(1<<20))
	o.set("go.gc_cycles", after.delta(before, "mdmatch_runtime_gc_total"))
}

// httpLatency records the HTTP round of a traced run: the p50 and p99
// of its requests under http.<op>_p50_ms / _p99_ms, and the failure
// ratio. It returns the p50.
func httpLatency(o *outcome, op string, latMS []float64) float64 {
	s := sortedCopy(latMS)
	o.set("http."+op+"_p50_ms", quantile(s, 0.5))
	o.set("http."+op+"_p99_ms", p99OrHighest(s))
	o.set("http.fail_ratio", ratio(float64(o.Failed), float64(o.Attempted)))
	o.Samples["http."+op] = len(s)
	return quantile(s, 0.5)
}

// buildTimings records the set-up share of each layer from a full
// in-process build (what the daemon does between exec and /readyz).
func buildTimings(o *outcome, s *stack) {
	o.set("gen.generate_s", s.generateS)
	o.set("core.serve_findrcks_s", s.findRCKsS)
	o.set("engine.load_s", s.loadS)
	if s.rec != nil && len(s.rec.batchS) > 0 {
		o.set("stream.batch_load_s", s.rec.batchS[0])
	}
}

// readRounds is the measured part of the two read-only workloads: per
// round, boot an in-memory daemon, hold it to the reference plan, warm
// it with ops[:warm], then push ops[warm:] through it closed-loop and
// SIGKILL it. verify checks the reply to ops[i]. unit is how many
// queries one op carries (throughput is in queries). The traced run
// additionally reads /metrics around the measured window.
type readRounds struct {
	setupS, qps, rss []float64
	latMS            [][]float64
}

func runReadRounds(e *env, o *outcome, ref *stack, ops []op, warm, clients, unit int,
	verify func(i int, body []byte) bool) (*readRounds, error) {
	rr := &readRounds{}
	for r := 0; r < e.rounds(roundSeconds, true); r++ {
		srv, err := startServer(e, "", clients, false)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer srv.kill()
			if err := checkPlan(o, srv, ref); err != nil {
				return err
			}
			closedLoop(srv.client, srv.base, ops[:warm], clients)
			var before scrape
			if e.traced {
				if before, err = srv.scrape(); err != nil {
					return err
				}
			}
			settle()
			res, wall := closedLoop(srv.client, srv.base, ops[warm:], clients)
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
			for i, got := range res {
				if got.ok() && !verify(warm+i, got.Body) {
					o.violate("request %d: reply %.200s differs from the in-process result", warm+i, got.Body)
				}
			}
			rr.setupS = append(rr.setupS, srv.setup.Seconds())
			rr.qps = append(rr.qps, float64(len(res)*unit)/wall.Seconds())
			rr.rss = append(rr.rss, mb)
			rr.latMS = append(rr.latMS, latenciesMS(res))
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if o.Failed > 0 {
		o.violate("%d of %d requests failed", o.Failed, o.Attempted)
	}
	return rr, nil
}

// replay times call(ctx, i) for i in [0, n) and returns the times (µs)
// of the calls at or after warm. With a tracer, every call runs under
// a fresh root span named root; without, under context.Background(),
// the untraced path.
func replay(n, warm int, tr *trace.Tracer, root string, call func(ctx context.Context, i int) error) ([]float64, error) {
	out := make([]float64, 0, n-warm)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		if tr != nil {
			err = traced(tr, root, func(ctx context.Context) error { return call(ctx, i) })
		} else {
			err = call(context.Background(), i)
		}
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if i >= warm {
			out = append(out, us(d))
		}
	}
	return out, nil
}

// runServeMatch is workload serve_match: single-record POST /match,
// closed loop. Every query is sent once per round, so most similarity
// verdicts are first sightings: the engine's verdict caches help
// little and the HTTP/JSON chain dominates.
func runServeMatch(e *env) (*outcome, error) {
	o := newOutcome("serve_match", e.traced)
	// Reference: the same engine the daemon builds, minus the enforcer
	// (which /match never consults). Its corpus is the daemon's corpus.
	ref, err := buildStack(stackOpts{k: e.k})
	if err != nil {
		return nil, err
	}
	base := ref.ds
	qs, err := matchQueries(base, e.seed, e.sz.MatchOps)
	if err != nil {
		return nil, err
	}
	attrs := base.Billing.Rel.AttrNames()
	ops := make([]op, len(qs))
	want := make([]engine.Result, len(qs))
	answers := make([][]int, len(qs))
	for i, q := range qs {
		ops[i] = op{Path: "/match", Body: matchBody(attrs, q.Values)}
		if want[i], err = ref.eng.MatchOne(q.Values); err != nil {
			return nil, err
		}
		answers[i] = want[i].Matches
	}
	if r := recallOfVariants(base, qs, answers); r < matchRecallFloor {
		o.violate("variant recall %.3f under the floor %.2f", r, matchRecallFloor)
	}
	warm := e.sz.MatchWarm
	rr, err := runReadRounds(e, o, ref, ops, warm, e.sz.MatchClients, 1, func(i int, body []byte) bool {
		var got matchResp
		return json.Unmarshal(body, &got) == nil && got.equals(want[i])
	})
	if err != nil {
		return nil, err
	}
	if !e.traced {
		o.endToEndFrom(rr.setupS, rr.qps, rr.rss, rr.latMS)
		return o, nil
	}
	httpP50 := httpLatency(o, "match", rr.latMS[0])

	// Traced run. The full stack gives the build budget and the untraced
	// in-process pass; a second, enforcer-less engine (identical for
	// matching, cheap to build) takes the traced pass, so both passes see
	// every query for the first time, like the daemon did.
	full, err := buildStack(stackOpts{k: e.k, withStream: true})
	if err != nil {
		return nil, err
	}
	buildTimings(o, full)
	matchOn := func(eng *engine.Engine) func(context.Context, int) error {
		return func(ctx context.Context, i int) error {
			_, err := eng.MatchOneCtx(ctx, qs[i].Values) // the call the /match handler makes
			return err
		}
	}
	untraced, err := replay(len(qs), warm, nil, "", matchOn(full.eng))
	if err != nil {
		return nil, err
	}
	fresh, err := buildStack(stackOpts{k: e.k})
	if err != nil {
		return nil, err
	}
	tr := newTracer(len(qs))
	tracedPass, err := replay(len(qs), warm, tr, "bench.match", matchOn(fresh.eng))
	if err != nil {
		return nil, err
	}
	sortedUS := sortedCopy(untraced)
	o.set("engine.match_us_p50", quantile(sortedUS, 0.5))
	o.set("engine.match_us_p99", p99OrHighest(sortedUS))
	o.set("http.match_overhead_us_p50", httpP50*1000-quantile(sortedUS, 0.5))
	o.set("trace.match_overhead_pct", 100*(sum(tracedPass)-sum(untraced))/sum(untraced))
	b := newLayerBudget()
	b.add(tr.Traces(), "bench.match")
	o.set("trace.attributed_pct", b.attributedPct())
	o.Samples["engine.match"] = len(untraced)
	return o, writeTraces(filepath.Join(e.traceDir, "trace-serve_match.json"), tr.Traces())
}

// batchPool is how many distinct batches serve_batch cycles through.
// The warm-up sends each once, so the measured requests find every
// similarity verdict cached: the opposite cache regime to serve_match.
const batchPool = 100

// runServeBatch is workload serve_batch: POST /match {"batch":[256]}.
func runServeBatch(e *env) (*outcome, error) {
	o := newOutcome("serve_batch", e.traced)
	ref, err := buildStack(stackOpts{k: e.k})
	if err != nil {
		return nil, err
	}
	base := ref.ds
	pool := batchPool
	if e.sz.BatchWarm < pool {
		pool = e.sz.BatchWarm
	}
	size := e.sz.BatchSize
	qs, err := matchQueries(base, e.seed, pool*size)
	if err != nil {
		return nil, err
	}
	attrs := base.Billing.Rel.AttrNames()
	bodies := make([][]byte, pool)
	batches := make([][][]string, pool)
	want := make([][]engine.Result, pool)
	for b := range bodies {
		part := qs[b*size : (b+1)*size]
		bodies[b] = batchBody(attrs, part)
		batches[b] = make([][]string, size)
		for i, q := range part {
			batches[b][i] = q.Values
		}
		if want[b], err = ref.eng.MatchBatch(batches[b]); err != nil {
			return nil, err
		}
	}
	ops := make([]op, e.sz.BatchReqs)
	for i := range ops {
		ops[i] = op{Path: "/match", Body: bodies[i%pool]}
	}
	warm := e.sz.BatchWarm
	rr, err := runReadRounds(e, o, ref, ops, warm, e.sz.BatchClients, size, func(i int, body []byte) bool {
		var got batchResp
		w := want[i%pool]
		if json.Unmarshal(body, &got) != nil || len(got.Results) != len(w) {
			return false
		}
		for j := range w {
			if !got.Results[j].equals(w[j]) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if !e.traced {
		o.endToEndFrom(rr.setupS, rr.qps, rr.rss, rr.latMS)
		return o, nil
	}
	httpP50 := httpLatency(o, "match", rr.latMS[0])

	// Traced run: the same request sequence through MatchBatchCtx on a
	// full in-process stack, untraced then traced (both warm after the
	// shared warm-up, like the daemon's measured window).
	full, err := buildStack(stackOpts{k: e.k, withStream: true})
	if err != nil {
		return nil, err
	}
	buildTimings(o, full)
	batchCall := func(ctx context.Context, i int) error {
		_, err := full.eng.MatchBatchCtx(ctx, batches[i%pool])
		return err
	}
	untraced, err := replay(len(ops), warm, nil, "", batchCall)
	if err != nil {
		return nil, err
	}
	tr := newTracer(len(ops))
	if _, err := replay(len(ops), warm, tr, "bench.match_batch", batchCall); err != nil {
		return nil, err
	}
	perQuery := quantile(sortedCopy(untraced), 0.5) / float64(size)
	o.set("engine.batch_us_per_query", perQuery)
	o.set("http.batch_overhead_us_per_query", httpP50*1000/float64(size)-perQuery)
	b := newLayerBudget()
	b.add(tr.Traces(), "bench.match_batch")
	pct := b.attributedPct()
	o.set("trace.attributed_pct", pct)
	if pct < 90 {
		o.violate("traced batch pass attributes %.1f%% of its time to named layers, under 90%%", pct)
	}
	o.Samples["engine.match_batch"] = len(untraced)
	return o, writeTraces(filepath.Join(e.traceDir, "trace-serve_batch.json"), tr.Traces())
}
