package main

// This file is the benchmark's vocabulary: the workloads, the metrics
// every run prints, and the fixed sizes and server flags. BENCHMARK.json
// and bench/README.md repeat it; spec_test.go keeps the three in step.

// Fixed daemon configuration (ISSUE 11): every serve_* workload boots
// `matchd -addr 127.0.0.1:<port> -k 1000 -seed 1 -log-level warn`, plus
// `-data-dir <tmp> -snapshot-wal-bytes 16384` where the workload is
// durable. fsync stays ON (the flag default). The server's corpus seed
// never changes; the harness -seed only drives the request sequences.
const (
	serverK    = 1000
	serverSeed = 1
	serverM    = 5 // matchd's -m default: RCKs derived and served
	// snapshotWALBytes is scaled with the ingest op count (ISSUE sized
	// 131072 for 3000 inserts) so every round still sees several
	// background snapshots.
	snapshotWALBytes = 16384
)

// Latency limits of serve_mixed (open loop), ISSUE 11's. A request that
// fails, is refused or finishes later than its limit after its due time
// misses; a run whose median window (see mixedWindows) has more than
// sloMissMax of its requests miss fails.
const (
	matchLimitMS  = 5.0
	insertLimitMS = 50.0
	sloMissMax    = 0.01
)

// Validity of the open-loop generator (ISSUE 11): a serve_mixed run
// whose sends were late by more than lateLimitMS at the p99, or that
// completed under achievedShareMin of the offered rate, is invalid and
// fails.
const (
	lateLimitMS      = 1.0
	achievedShareMin = 0.99
)

// Quality floors (correctness gate). The linkage floors sit well under
// the seed-1 values (F1 ≈ 0.86 FSrck, 0.84 SNrck at K=2000); the serve
// floors are the share of noisy-variant queries that must find a credit
// record of their true holder, and the pairwise precision of the
// clusters ingested records land in, against the generator's truth.
const (
	f1FloorFSrck        = 0.75
	f1FloorSNrck        = 0.72
	matchRecallFloor    = 0.50
	clusterPrecisionMin = 0.60
)

// sizes are the fixed op counts of one measured round. They were fitted
// once to the builder contract's total-time cap (7 workloads, 158 driver
// runs in 3420 s) and are not to be changed afterwards: later issues
// compare against numbers measured at these sizes.
type sizes struct {
	// serve_match: single-record POST /match, closed loop.
	MatchOps, MatchWarm, MatchClients int
	// serve_batch: POST /match {"batch":[BatchSize]} requests.
	BatchReqs, BatchWarm, BatchSize, BatchClients int
	// serve_ingest: POST /records, one client.
	IngestOps int
	// serve_mixed: open-loop Poisson schedule.
	MixedOps, MixedConns   int
	MixedRate, MixedInsert float64
	// paper_rck, paper_enforce, paper_linkage, per round.
	RCKCalls, RCKCard, RCKM, RCKYLen int
	EnforceK, LinkageK               int
}

var fullSizes = sizes{
	MatchOps: 30000, MatchWarm: 3000, MatchClients: 2,
	BatchReqs: 1100, BatchWarm: 100, BatchSize: 256, BatchClients: 2,
	IngestOps: 500,
	MixedOps:  4000, MixedConns: 64, MixedRate: 1000, MixedInsert: 0.03,
	RCKCalls: 8, RCKCard: 2000, RCKM: 50, RCKYLen: 12,
	EnforceK: 700, LinkageK: 2000,
}

// smokeSizes push a couple of hundred ops through every workload so the
// self-tests exercise the whole harness in seconds.
var smokeSizes = sizes{
	MatchOps: 220, MatchWarm: 20, MatchClients: 2,
	BatchReqs: 12, BatchWarm: 2, BatchSize: 16, BatchClients: 2,
	IngestOps: 40,
	MixedOps:  200, MixedConns: 2, MixedRate: 400, MixedInsert: 0.1,
	RCKCalls: 1, RCKCard: 100, RCKM: 10, RCKYLen: 6,
	EnforceK: 40, LinkageK: 150,
}

// roundSeconds is the nominal length of one round (boot + ops + tear
// down) on the box the sizes were fitted on; -seconds / roundSeconds
// gives the number of rounds, so a run does the same work every time.
const roundSeconds = 6.5

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"serve_match", "27000 single POST /match a round after 3000 warm-up, closed loop, 2 clients, each query sent once: HTTP/JSON is ~99% of a request, the engine ~1%; an HTTP gain shows here, an engine gain must not"},
	{"serve_batch", "1000 POST /match batches of 256 a round after 100 warm-up, closed loop, 2 clients, verdict caches warm: JSON decode is ~85% of a query, the engine ~15%; an engine gain shows here, not on serve_match"},
	{"serve_ingest", "500 durable POST /records a round, 1 client, fsync on, background snapshots, then SIGKILL and recovery: the stream chase (linear in records) is ~76% of a request, HTTP ~15%, fsync ~7%"},
	{"serve_mixed", "open loop, Poisson 1000 req/s, 4000 requests a round, 97% /match beside 3% durable POST /records, latency from due time: a 2-worker chase competes with reads for 2 cores"},
	{"paper_rck", "in-process, no HTTP: core.FindRCKs at card 2000, m 50, |Y| 12, 8 calls per round (the paper's Fig. 8): core only; every serving-side or chase change must leave it flat"},
	{"paper_enforce", "in-process: semantics.Enforce of the 7 holder MDs at K=700, the batch chase: semantics only; the guard for folding Enforce into one chase core, flat under serving changes"},
	{"paper_linkage", "in-process: FS, FSrck, SN, SNrck at K=2000 over shared windowed candidates (Figs. 9-10), F1 floors: fellegi, neighborhood, matching; engine/stream/store changes leave it flat"},
}

// metricSpec describes one printed metric. What each one measures, and
// which end-to-end metric it should move on which workload, is the
// table in bench/README.md.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is the gated list. The driver requires every workload to
// print every end-to-end metric, so the names are generic and each
// workload binds them to its own operation (bench/README.md has the
// table): the unit op is one /match query, one ingested record, or one
// pipeline round.
//
// There is no p99 here. Its run-to-run spread over ten seeds was
// 9-15% on serve_match, 8-18% on serve_batch, 15-28% on serve_ingest
// and 26-51% on serve_mixed (the read tail beside a 2-worker chase on
// 2 shared cores), above the 25% a bound may be; by ISSUE 11's rule it
// was stabilised first (per-round p99, median of three rounds) and,
// still over, demoted to the per-layer list: http.match_p99_ms and
// http.insert_p99_ms are printed, not gated.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "mb", Better: "lower", Bound: 0.2},
}

// perLayer is the ungated list, printed by -trace 1. A workload that
// does not exercise a layer prints 0 for its metrics.
var perLayer = []metricSpec{
	// loadgen: validity of the open-loop generator; no bound, an invalid run fails.
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.offered_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.valid", Unit: "count", Better: "higher"},

	// http: the cmd/matchd handler chain.
	{Name: "http.match_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.insert_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "http.batch_overhead_us_per_query", Unit: "us", Better: "lower"},
	{Name: "http.req_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "http.resp_bytes_mean", Unit: "bytes", Better: "lower"},
	{Name: "http.rejected_total", Unit: "count", Better: "lower"},
	{Name: "http.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "http.slo_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "http.match_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.match_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.insert_p99_ms", Unit: "ms", Better: "lower"},

	// engine
	{Name: "engine.match_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.match_us_p99", Unit: "us", Better: "lower"},
	{Name: "engine.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "engine.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.compared_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.matches_per_compared", Unit: "ratio", Better: "higher"},
	{Name: "engine.pair_evals_resolved_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.index_add_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.load_s", Unit: "s", Better: "lower"},

	// stream
	{Name: "stream.insert_us_p50", Unit: "us", Better: "lower"},
	{Name: "stream.insert_us_p99", Unit: "us", Better: "lower"},
	{Name: "stream.insert_us_per_1k_records", Unit: "us", Better: "lower"},
	{Name: "stream.pairs_examined_per_insert", Unit: "count", Better: "lower"},
	{Name: "stream.lhs_evals_per_insert", Unit: "count", Better: "lower"},
	{Name: "stream.applications_per_insert", Unit: "count", Better: "lower"},
	{Name: "stream.passes_per_insert", Unit: "count", Better: "lower"},
	{Name: "stream.fired_per_examined", Unit: "ratio", Better: "higher"},
	{Name: "stream.cache_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "stream.batch_load_s", Unit: "s", Better: "lower"},
	{Name: "stream.replay_s", Unit: "s", Better: "lower"},

	// store
	{Name: "store.recovery_s", Unit: "s", Better: "lower"},
	{Name: "store.append_us_p50", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "store.snapshots", Unit: "count", Better: "lower"},
	{Name: "store.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "store.snapshot_bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "store.snapshot_load_s", Unit: "s", Better: "lower"},
	{Name: "store.replayed_records", Unit: "count", Better: "lower"},
	{Name: "store.disk_bytes_per_record", Unit: "bytes", Better: "lower"},

	// fs: the device boundary, this sandbox's disk, not a device's.
	{Name: "fs.sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "fs.sync_us_p99", Unit: "us", Better: "lower"},
	{Name: "fs.syncs_per_insert", Unit: "count", Better: "lower"},
	{Name: "fs.writes_per_insert", Unit: "count", Better: "lower"},
	{Name: "fs.write_amplification", Unit: "ratio", Better: "lower"},

	// core
	{Name: "core.rck_s", Unit: "s", Better: "lower"},
	{Name: "core.findrcks_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "core.rcks_found", Unit: "count", Better: "higher"},
	{Name: "core.serve_findrcks_s", Unit: "s", Better: "lower"},

	// semantics
	{Name: "semantics.enforce_s", Unit: "s", Better: "lower"},
	{Name: "semantics.pairs_examined", Unit: "count", Better: "lower"},
	{Name: "semantics.lhs_evaluations", Unit: "count", Better: "lower"},
	{Name: "semantics.applications", Unit: "count", Better: "lower"},
	{Name: "semantics.passes", Unit: "count", Better: "lower"},

	// fellegi / neighborhood / matching
	{Name: "matching.linkage_s", Unit: "s", Better: "lower"},
	{Name: "fellegi.fs_s", Unit: "s", Better: "lower"},
	{Name: "fellegi.fsrck_s", Unit: "s", Better: "lower"},
	{Name: "neighborhood.sn_s", Unit: "s", Better: "lower"},
	{Name: "neighborhood.snrck_s", Unit: "s", Better: "lower"},
	{Name: "matching.compared_pairs", Unit: "count", Better: "lower"},
	{Name: "matching.f1_fsrck", Unit: "ratio", Better: "higher"},
	{Name: "matching.f1_snrck", Unit: "ratio", Better: "higher"},

	// gen, trace, Go runtime
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "trace.match_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.attributed_pct", Unit: "%", Better: "higher"},
	{Name: "go.heap_alloc_mb", Unit: "mb", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
