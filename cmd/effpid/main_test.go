package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"effpi"
)

func testServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	if cfg.defaultTimeout == 0 {
		cfg.defaultTimeout = 30 * time.Second
	}
	srv := newServer(effpi.NewWorkspace(), cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	return ts
}

// testServerWithSrv is testServer when the test also needs the server
// (to override the engine's execute hook or read its counters).
func testServerWithSrv(t *testing.T, cfg serverConfig) (*httptest.Server, *server) {
	t.Helper()
	if cfg.defaultTimeout == 0 {
		cfg.defaultTimeout = 30 * time.Second
	}
	srv := newServer(effpi.NewWorkspace(), cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	return ts, srv
}

func postVerify(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf
}

func TestHealthzAndMetrics(t *testing.T) {
	ts := testServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || !health.OK {
		t.Fatalf("healthz: ok=%v err=%v", health.OK, err)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]json.Number
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics is not flat JSON: %v", err)
	}
	for _, key := range []string{"requests_total", "verdicts_pass_total", "cache_memos", "cache_evictions"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

// TestVerifySourceWitness: a deadlocking program posted as source text
// comes back with a FAIL verdict carrying a replay-validated witness
// lasso, and the response names the program's inferred type.
func TestVerifySourceWitness(t *testing.T) {
	ts := testServer(t, serverConfig{})
	code, buf := postVerify(t, ts, `{
		"source": "send(c, 1, fun (_: Unit) => end)",
		"binds": [{"name": "c", "type": "Chan[Int]"}],
		"properties": [{"kind": "deadlock-free", "channels": ["c"]}]
	}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type == "" {
		t.Error("response missing inferred type")
	}
	if len(resp.Results) != 1 {
		t.Fatalf("want 1 result, got %d", len(resp.Results))
	}
	res := resp.Results[0]
	if res.Holds {
		t.Fatal("deadlocking program must fail deadlock-freedom")
	}
	if res.Witness == nil {
		t.Fatal("FAIL without witness")
	}
	if !res.Witness.Replayed || len(res.Witness.Cycle) == 0 {
		t.Errorf("witness not replay-validated or empty: %+v", res.Witness)
	}
	for _, st := range append(append([]effpi.WitnessStepJSON{}, res.Witness.Stem...), res.Witness.Cycle...) {
		if st.Label == "" {
			t.Error("witness step without label")
		}
	}
}

// TestVerifySystemDefaults: naming a benchmark row without properties
// runs its six Fig. 9 columns, and every verdict matches the published
// expectation.
func TestVerifySystemDefaults(t *testing.T) {
	ts := testServer(t, serverConfig{})
	row := effpi.Fig9Systems()[5] // Dining philos. (5, deadlock)
	code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": %q}`, row.Name))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.System != row.Name {
		t.Errorf("system echo: %q != %q", resp.System, row.Name)
	}
	if len(resp.Results) != len(row.Props) {
		t.Fatalf("want %d results, got %d", len(row.Props), len(resp.Results))
	}
	for i, res := range resp.Results {
		want, ok := row.Expected[row.Props[i].Kind]
		if !ok {
			continue
		}
		if res.Holds != want {
			t.Errorf("%s: verdict %v, Fig. 9 expects %v", res.Property, res.Holds, want)
		}
	}
}

// canonicalise zeroes the wall-clock fields so responses can be compared
// byte for byte.
func canonicalise(t *testing.T, buf []byte) string {
	t.Helper()
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		t.Fatalf("canonicalise: %v (%s)", err, buf)
	}
	resp.DurationMS = 0
	for i := range resp.Results {
		resp.Results[i].DurationMS = 0
	}
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestConcurrentRequestsIdentical is the service-level determinism
// check: many concurrent requests over one shared workspace return
// byte-identical bodies (modulo wall-clock fields) — to each other and
// to a fully serial (parallelism 1) run of the same request.
func TestConcurrentRequestsIdentical(t *testing.T) {
	ts := testServer(t, serverConfig{})
	row := effpi.Fig9Systems()[5] // Dining philos. (5, deadlock): mixed verdicts, witnesses
	req := fmt.Sprintf(`{"system": %q}`, row.Name)

	code, serialBuf := postVerify(t, ts, fmt.Sprintf(`{"system": %q, "parallelism": 1}`, row.Name))
	if code != http.StatusOK {
		t.Fatalf("serial run: status %d: %s", code, serialBuf)
	}
	serial := canonicalise(t, serialBuf)

	const concurrent = 8
	results := make([]string, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			buf, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf)
				return
			}
			results[i] = buf2canon(buf)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != serial {
			t.Errorf("request %d differs from the serial run:\n%s\nvs\n%s", i, results[i], serial)
		}
	}
}

// buf2canon is canonicalise without *testing.T (for goroutines).
func buf2canon(buf []byte) string {
	var resp verifyResponse
	if err := json.Unmarshal(buf, &resp); err != nil {
		return "unmarshal error: " + err.Error()
	}
	resp.DurationMS = 0
	for i := range resp.Results {
		resp.Results[i].DurationMS = 0
	}
	out, _ := json.Marshal(&resp)
	return string(out)
}

// TestTimeoutCancelsAndCacheSurvives: a request with a 1 ms budget on a
// multi-thousand-state system times out with 504/"timeout", and the
// shared workspace stays fully usable — the identical request without
// the tiny budget succeeds afterwards with the expected verdicts, and
// two post-cancellation runs are byte-identical.
func TestTimeoutCancelsAndCacheSurvives(t *testing.T) {
	ts := testServer(t, serverConfig{})
	row := effpi.LargeSystems()[0] // Dining philos. (7, deadlock): 2187 states
	code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": %q, "timeout_ms": 1}`, row.Name))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("want 504 on a 1ms budget, got %d: %s", code, buf)
	}
	var e errorResponse
	if err := json.Unmarshal(buf, &e); err != nil || e.Kind != "timeout" {
		t.Fatalf("want kind=timeout, got %s (err %v)", buf, err)
	}

	run := func() string {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": %q}`, row.Name))
		if code != http.StatusOK {
			t.Fatalf("post-cancel run: status %d: %s", code, buf)
		}
		return canonicalise(t, buf)
	}
	first := run()
	if second := run(); first != second {
		t.Error("two post-cancellation runs differ — cancellation poisoned the cache")
	}
	var resp verifyResponse
	if err := json.Unmarshal([]byte(first), &resp); err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if want, ok := row.Expected[row.Props[i].Kind]; ok && res.Holds != want {
			t.Errorf("%s: verdict %v after cancellation, expected %v", res.Property, res.Holds, want)
		}
	}
}

// TestBadRequests: malformed inputs come back as structured errors with
// the right statuses.
func TestBadRequests(t *testing.T) {
	ts := testServer(t, serverConfig{})
	cases := []struct {
		name, body string
		status     int
		kind       string
	}{
		{"neither source nor system", `{}`, http.StatusBadRequest, "bad-request"},
		{"both source and system", `{"source": "end", "system": "x"}`, http.StatusBadRequest, "bad-request"},
		{"unknown system", `{"system": "no such row"}`, http.StatusNotFound, "bad-request"},
		{"source without properties", `{"source": "end"}`, http.StatusBadRequest, "bad-request"},
		{"unknown property kind", `{"source": "end", "properties": [{"kind": "bogus"}]}`, http.StatusBadRequest, "bad-request"},
		{"parse error", `{"source": "send(", "properties": [{"kind": "deadlock-free"}]}`, http.StatusBadRequest, "parse"},
		{"type error", `{"source": "send(42, 1, fun (_: Unit) => end)", "properties": [{"kind": "deadlock-free"}]}`, http.StatusUnprocessableEntity, "type"},
		{"unknown field", `{"source": "end", "bogus_field": 1}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		code, buf := postVerify(t, ts, tc.body)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.status, buf)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(buf, &e); err != nil {
			t.Errorf("%s: error body is not JSON: %s", tc.name, buf)
			continue
		}
		if e.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q", tc.name, e.Kind, tc.kind)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// GET on the verify endpoint is not allowed.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/verify: status %d, want 405", resp.StatusCode)
	}
}

// TestEarlyExitRequest: the on-the-fly engine is reachable over the
// wire and reports its discovered/expanded counts.
// TestReductionRequestRejectsUnknownMode: the "reduction" field is gone
// from the wire — the bisimulation Reduce stage was removed — so a
// request that still sends it, with any mode, is a stable 400
// bad-request naming the field, never a silently ignored option.
func TestReductionRequestRejectsUnknownMode(t *testing.T) {
	ts := testServer(t, serverConfig{})
	for _, mode := range []string{"strong", "off", "branching"} {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": "Dining philos. (4, deadlock)", "reduction": %q}`, mode))
		if code != http.StatusBadRequest {
			t.Fatalf("reduction %q: status %d, want 400: %s", mode, code, buf)
		}
		if !bytes.Contains(buf, []byte(`"kind": "bad-request"`)) {
			t.Errorf("reduction %q: error kind not bad-request: %s", mode, buf)
		}
		if !bytes.Contains(buf, []byte(`reduction`)) {
			t.Errorf("reduction %q: error does not name the field: %s", mode, buf)
		}
	}
}

// TestSymmetryRequest: a symmetric benchmark row verified with
// "symmetry": "on" keeps every verdict and concrete state count of the
// reference run, reports the orbit collapse in states_explored and
// orbit_ratio (states_explored ≤ states, orbit_ratio ≥ 1), carries
// replay-validated lifted witnesses on FAILs, and feeds the /metrics
// orbit accounting.
func TestSymmetryRequest(t *testing.T) {
	ts := testServer(t, serverConfig{})
	body := func(symmetry string) string {
		return fmt.Sprintf(`{
			"system": "Ping-pong (6 pairs)",
			"symmetry": %q
		}`, symmetry)
	}
	code, base := postVerify(t, ts, body("off"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, base)
	}
	code, sym := postVerify(t, ts, body("on"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, sym)
	}
	type result struct {
		Kind           string             `json:"kind"`
		Holds          bool               `json:"holds"`
		States         int                `json:"states"`
		StatesExplored int                `json:"states_explored"`
		OrbitRatio     float64            `json:"orbit_ratio"`
		Witness        *effpi.WitnessJSON `json:"witness"`
	}
	var baseResp, symResp struct {
		Results []result `json:"results"`
	}
	if err := json.Unmarshal(base, &baseResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sym, &symResp); err != nil {
		t.Fatal(err)
	}
	if len(symResp.Results) != len(baseResp.Results) || len(symResp.Results) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(symResp.Results), len(baseResp.Results))
	}
	for i, r := range symResp.Results {
		b := baseResp.Results[i]
		if r.Holds != b.Holds || r.States != b.States {
			t.Errorf("%s: symmetric verdict/states (%v,%d) differ from reference (%v,%d)", r.Kind, r.Holds, r.States, b.Holds, b.States)
		}
		if b.StatesExplored != 0 {
			t.Errorf("%s: reference result carries states_explored=%d", b.Kind, b.StatesExplored)
		}
		if r.StatesExplored <= 0 || r.StatesExplored > r.States {
			t.Errorf("%s: states_explored=%d out of range (states %d)", r.Kind, r.StatesExplored, r.States)
		}
		if r.OrbitRatio < 1 {
			t.Errorf("%s: orbit_ratio=%v, want >= 1", r.Kind, r.OrbitRatio)
		}
		if !r.Holds && r.Kind != effpi.EventualOutput.String() && (r.Witness == nil || !r.Witness.Replayed) {
			t.Errorf("%s: symmetric FAIL without replay-validated witness", r.Kind)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["symmetric_properties_total"] <= 0 {
		t.Errorf("symmetric_properties_total = %v, want > 0", metrics["symmetric_properties_total"])
	}
	if metrics["orbit_ratio"] <= 1 {
		t.Errorf("orbit_ratio = %v, want > 1 after a collapsed row", metrics["orbit_ratio"])
	}
	if metrics["symmetry_states_covered_total"] < metrics["symmetry_states_explored_total"] {
		t.Errorf("cumulative covered states %v < explored %v", metrics["symmetry_states_covered_total"], metrics["symmetry_states_explored_total"])
	}
}

// TestSymmetryRequestRejectsUnknownMode: an unknown symmetry name is a
// stable 400 spelling out the valid-values list — the contract clients
// and the CI smoke rely on to distinguish a typo from a server fault.
func TestSymmetryRequestRejectsUnknownMode(t *testing.T) {
	ts := testServer(t, serverConfig{})
	for _, bad := range []string{"orbit", "rotational", "ON"} {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": "Dining philos. (4, deadlock)", "symmetry": %q}`, bad))
		if code != http.StatusBadRequest {
			t.Fatalf("mode %q: status %d, want 400: %s", bad, code, buf)
		}
		if !bytes.Contains(buf, []byte(`"kind": "bad-request"`)) {
			t.Errorf("mode %q: error kind not bad-request: %s", bad, buf)
		}
		for _, want := range []string{bad, "valid values", "off", "on"} {
			if !bytes.Contains(buf, []byte(want)) {
				t.Errorf("mode %q: error does not mention %q: %s", bad, want, buf)
			}
		}
	}
}

// TestRotationalSymmetryRequest: a symmetry request on the fork ring.
// Dining(8, deadlock) detects no group, so its deadlock-freedom column
// (the one property that observes no fork) answers exactly as it does
// without symmetry: the same response byte for byte, no collapse
// reported, and a replay-validated witness for the deadlock FAIL.
func TestRotationalSymmetryRequest(t *testing.T) {
	ts := testServer(t, serverConfig{})
	post := func(symmetry string) string {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{
			"system": "Dining philos. (8, deadlock)",
			"symmetry": %q,
			"properties": [{"kind": "deadlock-free"}]
		}`, symmetry))
		if code != http.StatusOK {
			t.Fatalf("symmetry %s: status %d: %s", symmetry, code, buf)
		}
		return canonicalise(t, buf)
	}
	on := post("on")
	if off := post("off"); on != off {
		t.Errorf("symmetry on differs from off on a ring:\n%s\nvs\n%s", on, off)
	}
	var resp verifyResponse
	if err := json.Unmarshal([]byte(on), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	if r.Holds || r.States != 6560 || r.StatesExplored != 0 || r.OrbitRatio != 0 {
		t.Errorf("holds=%v states=%d explored=%d ratio=%v, want a FAIL on 6560 concrete states and no collapse",
			r.Holds, r.States, r.StatesExplored, r.OrbitRatio)
	}
	if r.Witness == nil || !r.Witness.Replayed {
		t.Error("FAIL without replay-validated witness")
	}
}

// TestPprofGating: the profiling endpoints exist only behind the -pprof
// flag — a default server 404s them, an opted-in one serves the index.
func TestPprofGating(t *testing.T) {
	off := testServer(t, serverConfig{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := testServer(t, serverConfig{pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(buf, []byte("goroutine")) {
		t.Errorf("pprof index does not list profiles: %.200s", buf)
	}
}

func TestEarlyExitRequest(t *testing.T) {
	ts := testServer(t, serverConfig{})
	code, buf := postVerify(t, ts, `{
		"source": "send(c, 1, fun (_: Unit) => end)",
		"binds": [{"name": "c", "type": "Chan[Int]"}],
		"properties": [{"kind": "deadlock-free", "channels": ["c"]}],
		"early_exit": true
	}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, buf)
	}
	if !bytes.Contains(buf, []byte(`"early_exit": true`)) {
		t.Errorf("early-exit outcome not marked in response: %s", buf)
	}
}

// TestPartialOrderRequest: a "partial_order": "on" request for the
// POR-eligible properties of a row explores ample transition subsets —
// verdicts match the unreduced run, every engaged result carries
// partial_order plus a states_explored count no larger than the
// reference state space, a FAIL still carries a replay-validated
// witness, and /metrics exposes the POR gauges. The whole row is a
// mixed batch (its one group has members POR cannot serve), so there
// every result equals the unreduced one.
func TestPartialOrderRequest(t *testing.T) {
	ts := testServer(t, serverConfig{})
	row, ok := effpi.BenchSystemByName("Ping-pong (6 pairs)")
	if !ok {
		t.Fatal("benchmark row not found")
	}
	var props []propJSON
	var idx []int
	for i, p := range row.Props {
		if p.Kind == effpi.NonUsage || p.Kind == effpi.DeadlockFree || p.Kind == effpi.Reactive {
			props = append(props, propJSON{Kind: p.Kind.String(), Channels: p.Channels, From: p.From, To: p.To, Open: !p.Closed})
			idx = append(idx, i)
		}
	}
	eligible, err := json.Marshal(props)
	if err != nil {
		t.Fatal(err)
	}
	body := func(mode, props string) string {
		return fmt.Sprintf(`{
			"system": "Ping-pong (6 pairs)",
			"partial_order": %q%s
		}`, mode, props)
	}
	code, base := postVerify(t, ts, body("off", ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, base)
	}
	code, por := postVerify(t, ts, body("on", `, "properties": `+string(eligible)))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, por)
	}
	code, mixed := postVerify(t, ts, body("on", ""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, mixed)
	}
	type result struct {
		Kind           string             `json:"kind"`
		Holds          bool               `json:"holds"`
		States         int                `json:"states"`
		StatesExplored int                `json:"states_explored"`
		PartialOrder   bool               `json:"partial_order"`
		Witness        *effpi.WitnessJSON `json:"witness"`
	}
	var baseResp, porResp, mixedResp struct {
		Results []result `json:"results"`
	}
	for _, r := range []struct {
		buf  []byte
		into any
	}{{base, &baseResp}, {por, &porResp}, {mixed, &mixedResp}} {
		if err := json.Unmarshal(r.buf, r.into); err != nil {
			t.Fatal(err)
		}
	}
	if len(porResp.Results) != len(props) || len(porResp.Results) == 0 || len(baseResp.Results) != len(row.Props) {
		t.Fatalf("result counts: %d reduced for %d properties, %d reference", len(porResp.Results), len(props), len(baseResp.Results))
	}
	engaged := 0
	for i, r := range porResp.Results {
		b := baseResp.Results[idx[i]]
		if r.Holds != b.Holds {
			t.Errorf("%s: reduced verdict %v differs from reference %v", r.Kind, r.Holds, b.Holds)
		}
		if b.PartialOrder {
			t.Errorf("%s: reference result carries partial_order", b.Kind)
		}
		if !r.PartialOrder {
			if r.States != b.States {
				t.Errorf("%s: disengaged result changed states %d -> %d", r.Kind, b.States, r.States)
			}
			continue
		}
		engaged++
		if r.StatesExplored <= 0 || r.StatesExplored > b.States {
			t.Errorf("%s: states_explored=%d out of range (reference states %d)", r.Kind, r.StatesExplored, b.States)
		}
		if r.States != r.StatesExplored {
			t.Errorf("%s: POR states=%d != states_explored=%d (both count the reduced space)", r.Kind, r.States, r.StatesExplored)
		}
		if !r.Holds && r.Kind != effpi.EventualOutput.String() && (r.Witness == nil || !r.Witness.Replayed) {
			t.Errorf("%s: reduced FAIL without replay-validated witness", r.Kind)
		}
	}
	if engaged == 0 {
		t.Fatal("no property engaged partial-order reduction on the ping-pong row")
	}
	if len(mixedResp.Results) != len(baseResp.Results) {
		t.Fatalf("result counts: %d mixed, %d reference", len(mixedResp.Results), len(baseResp.Results))
	}
	for i, m := range mixedResp.Results {
		b := baseResp.Results[i]
		mj, _ := json.Marshal(m)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(mj, bj) {
			t.Errorf("%s: mixed-batch result differs from the reference:\n%s\nvs\n%s", m.Kind, mj, bj)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics map[string]float64
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["por_properties_total"] != float64(engaged) {
		t.Errorf("por_properties_total = %v, want %d", metrics["por_properties_total"], engaged)
	}
	if metrics["por_states_explored_total"] <= 0 {
		t.Errorf("por_states_explored_total = %v, want > 0", metrics["por_states_explored_total"])
	}
}

// TestPartialOrderRequestRejectsUnknownMode: an unknown partial-order
// name is a stable 400 naming the valid values.
func TestPartialOrderRequestRejectsUnknownMode(t *testing.T) {
	ts := testServer(t, serverConfig{})
	code, buf := postVerify(t, ts, `{"system": "Dining philos. (4, deadlock)", "partial_order": "ample"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, buf)
	}
	if !bytes.Contains(buf, []byte(`"kind": "bad-request"`)) {
		t.Errorf("error kind not bad-request: %s", buf)
	}
	for _, want := range []string{"ample", "off", "on"} {
		if !bytes.Contains(buf, []byte(want)) {
			t.Errorf("error does not mention %q: %s", want, buf)
		}
	}
}

// TestTrailingBytesRejected: a body holding a second JSON value after
// the request object is malformed — both decode paths must 400 with
// kind "parse" instead of silently discarding the trailing bytes.
func TestTrailingBytesRejected(t *testing.T) {
	ts := testServer(t, serverConfig{})
	// The trailing-data check runs right after decoding, before row
	// lookup — the first object only needs to decode, not to resolve.
	bodies := []struct{ name, body string }{
		{"second object", `{"system": "x"}{"system": "y"}`},
		{"trailing scalar", `{"system": "x"} 42`},
	}
	for _, path := range []string{"/v1/verify", "/v1/jobs"} {
		for _, tc := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			buf, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", path, tc.name, resp.StatusCode, buf)
				continue
			}
			var e errorResponse
			if err := json.Unmarshal(buf, &e); err != nil {
				t.Errorf("%s %s: error body is not JSON: %s", path, tc.name, buf)
				continue
			}
			if e.Kind != "parse" {
				t.Errorf("%s %s: kind %q, want \"parse\"", path, tc.name, e.Kind)
			}
			if !strings.Contains(e.Error, "trailing") {
				t.Errorf("%s %s: error %q does not mention trailing data", path, tc.name, e.Error)
			}
		}
	}
	// Trailing whitespace (a bare newline from curl and friends) is not
	// a second value and must stay accepted.
	code, buf := postVerify(t, ts,
		"{\"source\": \"end\", \"properties\": [{\"kind\": \"deadlock-free\"}]}\n  ")
	if code != http.StatusOK {
		t.Errorf("trailing whitespace rejected: status %d (%s)", code, buf)
	}
}
