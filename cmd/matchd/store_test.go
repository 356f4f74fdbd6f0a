package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// durableConfig points a test server at a temp data directory with an
// aggressive body cap so the 413 path is cheap to exercise.
func durableConfig(t *testing.T, dir string) config {
	t.Helper()
	cfg := testConfig()
	cfg.dataDir = dir
	cfg.noSync = true // keep tests fast; crash semantics are store-level tested
	cfg.snapBytes = 0 // no background snapshotter: tests trigger explicitly
	return cfg
}

// TestServeBodyLimit413 is the request-hardening regression: a body
// beyond -max-body-bytes must come back as 413 on both POST endpoints,
// and a body just under the cap must still parse.
func TestServeBodyLimit413(t *testing.T) {
	cfg := testConfig()
	cfg.maxBody = 512
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	big := map[string]any{"record": map[string]string{"fn": strings.Repeat("x", 2048)}}
	for _, path := range []string{"/match", "/records"} {
		status, out := doJSON(t, ts, http.MethodPost, path, big)
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with oversized body = %d (%s), want 413", path, status, out["error"])
		}
	}
	// Under the cap still works (invalid attribute -> 400, not 413).
	status, _ := doJSON(t, ts, http.MethodPost, "/match",
		map[string]any{"record": map[string]string{"nope": "x"}})
	if status != http.StatusBadRequest {
		t.Fatalf("small body after cap = %d, want 400", status)
	}
}

// TestServeDurableRestart is the end-to-end recovery flow: ingest over
// HTTP, snapshot on demand, restart the server on the same directory,
// and find the exact same clusters, records and match answers — without
// the restart re-loading the generated corpus.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())

	rec := map[string]string{
		"cno": "4000123412341234", "ssn": "123-45-6789",
		"fn": "Augusta", "ln": "Byron", "street": "12 St James Square",
		"city": "London", "county": "Westminster", "zip": "SW1Y",
		"tel": "555-0100", "email": "ada@example.org",
		"gender": "F", "dob": "1815-12-10", "type": "visa",
	}
	status, out := doJSON(t, ts, http.MethodPost, "/records", map[string]any{"record": rec})
	if status != http.StatusOK {
		t.Fatalf("POST /records = %d (%s)", status, out["error"])
	}
	var id, cluster int
	if err := json.Unmarshal(out["id"], &id); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out["cluster"], &cluster); err != nil {
		t.Fatal(err)
	}
	// An on-demand snapshot, then one more mutation so recovery has a
	// WAL suffix to replay past the snapshot.
	status, out = doJSON(t, ts, http.MethodPost, "/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /snapshot = %d (%s)", status, out["error"])
	}
	rec2 := map[string]string{}
	for k, v := range rec {
		rec2[k] = v
	}
	rec2["fn"] = "Agusta" // near-duplicate: must cluster with the first
	status, out = doJSON(t, ts, http.MethodPost, "/records", map[string]any{"record": rec2})
	if status != http.StatusOK {
		t.Fatalf("POST /records (dup) = %d (%s)", status, out["error"])
	}
	var id2 int
	if err := json.Unmarshal(out["id"], &id2); err != nil {
		t.Fatal(err)
	}
	wantStream := srv.eng.Stream().Stats()
	ts.Close()
	srv.close()

	// "Restart": a new process over the same directory.
	srv2, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.close()
	ts2 := httptest.NewServer(srv2.routes())
	defer ts2.Close()

	gotStream := srv2.eng.Stream().Stats()
	wantStream.Chase.LHSEvaluations = 0
	gotStream.Chase.LHSEvaluations = 0
	if gotStream != wantStream {
		t.Fatalf("recovered stream stats = %+v, want %+v", gotStream, wantStream)
	}
	status, out = doJSON(t, ts2, http.MethodGet, fmt.Sprintf("/clusters/%d", id2), nil)
	if status != http.StatusOK {
		t.Fatalf("GET /clusters/%d after restart = %d (%s)", id2, status, out["error"])
	}
	var members []int
	if err := json.Unmarshal(out["members"], &members); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range members {
		if m == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("cluster of %d after restart = %v, does not contain %d", id2, members, id)
	}
	// The restarted engine still matches the ingested record.
	query := map[string]string{
		"cno": "4000123412341234", "fn": "Augusta", "ln": "Byron",
		"street": "12 St James Square", "city": "London",
		"county": "Westminster", "zip": "SW1Y", "phn": "555-0100",
		"email": "ada@example.org", "gender": "F", "dob": "1815-12-10",
	}
	status, out = doJSON(t, ts2, http.MethodPost, "/match", map[string]any{"record": query})
	if status != http.StatusOK {
		t.Fatalf("POST /match after restart = %d", status)
	}
	var matches []int
	if err := json.Unmarshal(out["matches"], &matches); err != nil {
		t.Fatal(err)
	}
	found = false
	for _, m := range matches {
		if m == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("matches after restart = %v, want to include %d", matches, id)
	}
	// Stats expose the store section.
	status, out = doJSON(t, ts2, http.MethodGet, "/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /stats = %d", status)
	}
	var storeSec map[string]json.RawMessage
	if err := json.Unmarshal(out["store"], &storeSec); err != nil {
		t.Fatalf("stats store section: %v (%s)", err, out["store"])
	}
}

// TestServeJournalFailureDegradesReadOnly pins the degraded-mode
// contract: when a valid record cannot be made durable (the WAL is
// broken/closed), POST /records answers 503 + Retry-After — the
// server's fault, retryable against a recovered process — the record
// is NOT applied, the daemon flips to degraded-readonly (visible in
// /readyz and /stats), and reads keep serving.
func TestServeJournalFailureDegradesReadOnly(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	before := srv.eng.Stream().Len()
	srv.store().Close() // every journal append now fails
	status, out := doJSON(t, ts, http.MethodPost, "/records",
		map[string]any{"record": map[string]string{"fn": "Valid"}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("POST /records with a dead journal = %d (%s), want 503", status, out["error"])
	}
	if got := srv.eng.Stream().Len(); got != before {
		t.Fatalf("failed journal append still applied the record: %d -> %d", before, got)
	}
	if got := srv.healthState(); got != healthDegraded {
		t.Fatalf("health after journal failure = %v, want degraded-readonly", got)
	}

	// The 503 carries a Retry-After so clients back off instead of
	// hammering a daemon that needs a restart.
	resp, err := ts.Client().Post(ts.URL+"/records", "application/json",
		strings.NewReader(`{"record":{"fn":"Again"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second POST /records while degraded = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 is missing a Retry-After header")
	}

	// Reads keep answering from memory: /match still works and /readyz
	// stays 200 (the daemon IS serving, just read-only).
	status, out = doJSON(t, ts, http.MethodPost, "/match",
		map[string]any{"record": map[string]string{"fn": "Augusta", "ln": "Byron"}})
	if status != http.StatusOK {
		t.Fatalf("POST /match while degraded = %d (%s), want 200", status, out["error"])
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while degraded = %d, want 200 (reads still serve)", resp.StatusCode)
	}
	if ready.Health != "degraded-readonly" {
		t.Fatalf("/readyz health = %q, want degraded-readonly", ready.Health)
	}
	status, out = doJSON(t, ts, http.MethodGet, "/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("/stats while degraded = %d", status)
	}
	var health string
	if err := json.Unmarshal(out["health"], &health); err != nil {
		t.Fatal(err)
	}
	if health != "degraded-readonly" {
		t.Fatalf("/stats health = %q, want degraded-readonly", health)
	}

	// A genuinely bad request is still the client's fault — but the
	// read-only gate runs first, so mutations see 503 before validation.
	// Validation errors on the READ path still 400.
	status, _ = doJSON(t, ts, http.MethodPost, "/match",
		map[string]any{"record": map[string]string{"nope": "x"}})
	if status != http.StatusBadRequest {
		t.Fatalf("bad attribute on /match while degraded = %d, want 400", status)
	}
}

// TestServeShutdownDuringBatch is the drain regression (run under
// -race in CI): batch match requests in flight while the server shuts
// down must complete or be refused cleanly, the final snapshot must
// observe a quiesced engine, and the directory must recover.
func TestServeShutdownDuringBatch(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(t, dir)
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())

	// One known record to batch-match against.
	batch := make([]map[string]any, 0, 8)
	for i := 0; i < 8; i++ {
		batch = append(batch, map[string]any{"record": map[string]string{
			"fn": "Augusta", "ln": "Byron", "zip": "SW1Y", "phn": "555-0100"}})
	}
	body, err := json.Marshal(map[string]any{"batch": batch})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer the server until the shutdown refuses connections: each
	// goroutine exits on its first transport error (the closed
	// listener), so requests are genuinely in flight when Close runs.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := ts.Client().Post(ts.URL+"/match", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server closed: expected during shutdown
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /match batch = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	// A writer too: inserts racing the shutdown must either land (and
	// be journaled) or be refused by the closed listener, never corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			b, _ := json.Marshal(map[string]any{"record": map[string]string{"fn": fmt.Sprintf("w%d", i)}})
			resp, err := ts.Client().Post(ts.URL+"/records", "application/json", bytes.NewReader(b))
			if err != nil {
				return
			}
			resp.Body.Close()
		}
	}()

	// Let traffic build, then shut down: Close waits for in-flight
	// handlers (the drain), then the final snapshot runs.
	time.Sleep(100 * time.Millisecond)
	ts.Close()
	srv.close()
	wg.Wait()

	// The final snapshot captured everything: no WAL suffix remains.
	if got := srv.store().BytesSinceSnapshot(); got != 0 {
		t.Fatalf("WAL bytes after final snapshot = %d, want 0", got)
	}
	// And the directory recovers.
	srv2, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("restart after shutdown: %v", err)
	}
	defer srv2.close()
	if got, want := srv2.eng.Stream().Len(), srv.eng.Stream().Len(); got != want {
		t.Fatalf("recovered %d records, live had %d", got, want)
	}
}

// TestServeEmptyRecordNotJournaled: a POST /records whose record has no
// non-empty value — the empty record form, or values that are all "" —
// is a 400 and appends nothing to the WAL, while POST /match still
// accepts the same empty record.
func TestServeEmptyRecordNotJournaled(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	lsn := srv.store().LSN()
	blank := make([]string, srv.ctx.Left.Arity())
	for _, body := range []map[string]any{
		{"record": map[string]string{}},
		{"record": map[string]string{"fn": "", "ln": ""}},
		{"values": blank},
	} {
		status, out := doJSON(t, ts, http.MethodPost, "/records", body)
		if status != http.StatusBadRequest {
			t.Fatalf("POST /records %v = %d (%s), want 400", body, status, out["error"])
		}
		if got := srv.store().LSN(); got != lsn {
			t.Fatalf("POST /records %v journaled: WAL records %d -> %d", body, lsn, got)
		}
	}
	status, out := doJSON(t, ts, http.MethodPost, "/match", map[string]any{"record": map[string]string{}})
	if status != http.StatusOK {
		t.Fatalf("POST /match with an empty record = %d (%s), want 200", status, out["error"])
	}
	// A record with one non-empty value is still a durable insert.
	status, out = doJSON(t, ts, http.MethodPost, "/records", map[string]any{"record": map[string]string{"fn": "Ada"}})
	if status != http.StatusOK {
		t.Fatalf("POST /records with one value = %d (%s), want 200", status, out["error"])
	}
	if got := srv.store().LSN(); got != lsn+1 {
		t.Fatalf("WAL records after one insert = %d, want %d", got, lsn+1)
	}
}
