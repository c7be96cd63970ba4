package main

// Tests of the admission-controlled job engine: the async lifecycle,
// deterministic backpressure, dequeue-before-start cancellation, panic
// containment (job-level and HTTP-level), graceful drain, and the
// saturation torture run. Everything here runs in the package's -race
// CI step.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"effpi"
)

// Marker systems the test exec hooks intercept before the real engine
// sees them. They are not valid benchmark rows — production servers
// would answer 404 — so a hook that fails to intercept shows up loudly.
const (
	slowSystem  = "__slow__"
	fastSystem  = "__fast__"
	panicSystem = "__panic__"
)

// hookRecorder tracks which requests a test exec hook actually ran, so
// tests can assert a cancelled job never started.
type hookRecorder struct {
	mu   sync.Mutex
	seen []string
}

func (h *hookRecorder) record(name string) {
	h.mu.Lock()
	h.seen = append(h.seen, name)
	h.mu.Unlock()
}

func (h *hookRecorder) ran(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.seen {
		if s == name {
			return true
		}
	}
	return false
}

// gatedExec intercepts the marker systems: slowSystem blocks until
// release closes (announcing itself on started first), fastSystem
// returns immediately, panicSystem panics. Everything else delegates to
// the real verification engine.
func gatedExec(srv *server, rec *hookRecorder, started chan<- struct{}, release <-chan struct{}) execFunc {
	return func(ctx context.Context, req *verifyRequest, progress func(effpi.Event)) (*verifyResponse, int, string, error) {
		rec.record(req.System)
		switch req.System {
		case slowSystem:
			if started != nil {
				started <- struct{}{}
			}
			select {
			case <-release:
				return &verifyResponse{System: slowSystem}, 0, "", nil
			case <-ctx.Done():
				return nil, http.StatusGatewayTimeout, "timeout", ctx.Err()
			}
		case fastSystem:
			return &verifyResponse{System: fastSystem}, 0, "", nil
		case panicSystem:
			panic("injected failure in a verification stage")
		}
		return srv.verify(ctx, req, progress)
	}
}

func doJSON(t *testing.T, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, buf
}

func submitJob(t *testing.T, ts *httptest.Server, body string) (int, http.Header, jobJSON) {
	t.Helper()
	code, hdr, buf := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	var j jobJSON
	if code == http.StatusAccepted {
		if err := json.Unmarshal(buf, &j); err != nil {
			t.Fatalf("job submit body: %v (%s)", err, buf)
		}
	}
	return code, hdr, j
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobJSON) {
	t.Helper()
	code, _, buf := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, "")
	var j jobJSON
	if code == http.StatusOK {
		if err := json.Unmarshal(buf, &j); err != nil {
			t.Fatalf("job get body: %v (%s)", err, buf)
		}
	}
	return code, j
}

// pollJob polls until the job reaches any of the wanted states.
func pollJob(t *testing.T, ts *httptest.Server, id string, want ...string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, j := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status %d while polling", id, code)
		}
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v in time", id, want)
	return jobJSON{}
}

func metricsMap(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	code, _, buf := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", code, buf)
	}
	var m map[string]float64
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("/metrics not flat numeric JSON: %v (%s)", err, buf)
	}
	return m
}

// TestJobLifecycle: submit → 202 with id and Location → poll to done →
// the job's result is byte-identical (modulo wall-clock fields) to the
// synchronous /v1/verify response for the same request.
func TestJobLifecycle(t *testing.T) {
	ts := testServer(t, serverConfig{})
	row := effpi.Fig9Systems()[5] // Dining philos. (5, deadlock)
	body := fmt.Sprintf(`{"system": %q}`, row.Name)

	code, syncBuf := postVerify(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("sync run: status %d: %s", code, syncBuf)
	}
	want := canonicalise(t, syncBuf)

	code, hdr, j := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if j.ID == "" || j.State != "queued" {
		t.Fatalf("submit view: %+v", j)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Errorf("Location header %q does not name the job", loc)
	}

	final := pollJob(t, ts, j.ID, "done")
	if final.Result == nil {
		t.Fatal("done job without result")
	}
	buf, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalise(t, buf); got != want {
		t.Errorf("async result differs from sync response:\n%s\nvs\n%s", got, want)
	}
	if final.RunningMS <= 0 {
		t.Errorf("done job reports running_ms = %v", final.RunningMS)
	}

	// Cancelling a terminal job is a no-op.
	code, _, buf2 := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "")
	if code != http.StatusOK || !strings.Contains(string(buf2), `"state": "done"`) {
		t.Errorf("DELETE on a done job: status %d body %s", code, buf2)
	}

	m := metricsMap(t, ts)
	if m["jobs_done_total"] < 2 { // the sync request is a job too
		t.Errorf("jobs_done_total = %v, want >= 2", m["jobs_done_total"])
	}
	if m["latency_done_count"] < 2 {
		t.Errorf("latency_done_count = %v, want >= 2", m["latency_done_count"])
	}
}

// TestJobSubmitViewIsQueued: the 202 body is the job as admitted. One
// idle worker and instant jobs make the worker race every response: it
// dequeues each job the moment submit hands it over, so a view taken
// after submit returns would often read "running" or "done".
func TestJobSubmitViewIsQueued(t *testing.T) {
	ts, srv := testServerWithSrv(t, serverConfig{workers: 1, queueDepth: 256})
	srv.engine.setExecute(gatedExec(srv, &hookRecorder{}, nil, nil))
	body := fmt.Sprintf(`{"system": %q}`, fastSystem)
	for i := 0; i < 200; i++ {
		code, _, j := submitJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if j.State != "queued" || j.QueuePosition < 1 {
			t.Fatalf("submit %d: 202 view %+v, want queued with a queue position", i, j)
		}
	}
}

// TestJobUnknownID: polling or cancelling an unknown id is a structured
// 404.
func TestJobUnknownID(t *testing.T) {
	ts := testServer(t, serverConfig{})
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		code, _, buf := doJSON(t, method, ts.URL+"/v1/jobs/nope", "")
		if code != http.StatusNotFound {
			t.Errorf("%s unknown job: status %d, want 404", method, code)
		}
		var e errorResponse
		if err := json.Unmarshal(buf, &e); err != nil || e.Kind != "not-found" {
			t.Errorf("%s unknown job: body %s", method, buf)
		}
	}
}

// TestSaturationBackpressure is the deterministic 429 test: a 1-worker,
// depth-2 server whose worker is pinned by a gated slow job admits
// exactly two more jobs and rejects everything else with 429 +
// Retry-After ≥ 1 — and a cancelled queued job never starts. Goroutine
// counts before and after bound the engine's footprint (no leak per
// flood).
func TestSaturationBackpressure(t *testing.T) {
	ts, srv := testServerWithSrv(t, serverConfig{workers: 1, queueDepth: 2})
	rec := &hookRecorder{}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	srv.engine.setExecute(gatedExec(srv, rec, started, release))

	before := runtime.NumGoroutine()

	slow := fmt.Sprintf(`{"system": %q}`, slowSystem)
	// j1 occupies the worker...
	code, _, j1 := submitJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("j1: status %d", code)
	}
	<-started // ...confirmed running: the queue is now empty.
	// j2 and j3 fill the depth-2 queue.
	code, _, j2 := submitJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("j2: status %d", code)
	}
	code, _, j3 := submitJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("j3: status %d", code)
	}
	if _, j := getJob(t, ts, j2.ID); j.State != "queued" || j.QueuePosition != 1 {
		t.Errorf("j2 view: %+v, want queued at position 1", j)
	}
	if _, j := getJob(t, ts, j3.ID); j.State != "queued" || j.QueuePosition != 2 {
		t.Errorf("j3 view: %+v, want queued at position 2", j)
	}

	// The server is saturated: readiness flips, and every further
	// submission — async or sync — is a deterministic 429 whose
	// Retry-After is a usable whole number of seconds.
	rcode, _, rbuf := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
	if rcode != http.StatusServiceUnavailable || !strings.Contains(string(rbuf), `"reason": "saturated"`) {
		t.Errorf("/readyz while saturated: status %d body %s", rcode, rbuf)
	}
	const rejected = 5
	for i := 0; i < rejected; i++ {
		var code int
		var hdr http.Header
		var buf []byte
		if i%2 == 0 {
			code, hdr, buf = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slow)
		} else {
			req, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(slow))
			if err != nil {
				t.Fatal(err)
			}
			buf, _ = io.ReadAll(req.Body)
			req.Body.Close()
			code, hdr = req.StatusCode, req.Header
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("flood request %d: status %d, want 429 (%s)", i, code, buf)
		}
		ra, err := strconv.Atoi(hdr.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Errorf("flood request %d: Retry-After %q, want integer >= 1", i, hdr.Get("Retry-After"))
		}
		var e errorResponse
		if err := json.Unmarshal(buf, &e); err != nil || e.Kind != "saturated" {
			t.Errorf("flood request %d: body %s, want kind saturated", i, buf)
		}
	}

	// Cancel j3 while it is still queued: it must finalise as cancelled
	// and never reach the execution hook.
	code, _, buf := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j3.ID, "")
	if code != http.StatusOK || !strings.Contains(string(buf), `"state": "cancelled"`) {
		t.Fatalf("cancel queued j3: status %d body %s", code, buf)
	}

	close(release)
	pollJob(t, ts, j1.ID, "done")
	pollJob(t, ts, j2.ID, "done")
	if j := pollJob(t, ts, j3.ID, "cancelled"); j.Error == nil || j.Error.Kind != "cancelled" {
		t.Errorf("cancelled j3 error: %+v", j.Error)
	}
	if rec.ran(slowSystem) && len(rec.seen) != 2 {
		t.Errorf("execution hook saw %d jobs (%v), want exactly 2 — the cancelled job must never start", len(rec.seen), rec.seen)
	}

	m := metricsMap(t, ts)
	if m["rejections_total"] != rejected {
		t.Errorf("rejections_total = %v, want %d", m["rejections_total"], rejected)
	}
	if m["retry_after_seconds"] < 1 {
		t.Errorf("retry_after_seconds = %v, want >= 1", m["retry_after_seconds"])
	}
	if hw := m["queue_high_water"]; hw > 2 {
		t.Errorf("queue_high_water = %v exceeds the configured depth 2", hw)
	}
	if m["jobs_cancelled_total"] != 1 {
		t.Errorf("jobs_cancelled_total = %v, want 1", m["jobs_cancelled_total"])
	}

	// No goroutine leak: once the flood is over and idle connections are
	// closed, the count returns to (about) where it started.
	http.DefaultClient.CloseIdleConnections()
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: before flood %d, after %d — leak", before, runtime.NumGoroutine())
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRetryAfterEstimator pins the admission estimator's arithmetic:
// EWMA service time × jobs ahead / workers, rounded up, never below one
// second.
func TestRetryAfterEstimator(t *testing.T) {
	e := &jobEngine{queue: make(chan *job, 4), workers: 2, jobs: make(map[string]*job)}
	if got := e.retryAfterLocked(); got != 1 {
		t.Errorf("empty engine: retry %d, want the 1s floor", got)
	}
	// Three queued jobs at an observed 3 s/job over 2 workers: ceil(4.5).
	e.ewmaMS = 3000
	for i := 0; i < 3; i++ {
		e.queue <- &job{}
	}
	if got := e.retryAfterLocked(); got != 5 {
		t.Errorf("3 queued × 3000ms / 2 workers: retry %d, want 5", got)
	}
	// A running job counts toward the backlog.
	e.jobs["r"] = &job{state: jobRunning}
	if got := e.retryAfterLocked(); got != 6 {
		t.Errorf("3 queued + 1 running: retry %d, want 6", got)
	}
}

// TestPanicContainment is the crash-isolation acceptance test: a panic
// injected into one job's execution fails that job (kind internal,
// panic value and stack in the record), increments panics_total, and
// leaves the server and its shared caches fully intact — the identical
// real request before and after the panic returns byte-identical
// results.
func TestPanicContainment(t *testing.T) {
	ts, srv := testServerWithSrv(t, serverConfig{})
	rec := &hookRecorder{}
	srv.engine.setExecute(gatedExec(srv, rec, nil, nil))

	row := effpi.Fig9Systems()[5] // Dining philos. (5, deadlock): witnesses too
	body := fmt.Sprintf(`{"system": %q}`, row.Name)
	code, baseline := postVerify(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", code, baseline)
	}

	code, _, j := submitJob(t, ts, fmt.Sprintf(`{"system": %q}`, panicSystem))
	if code != http.StatusAccepted {
		t.Fatalf("panic job submit: status %d", code)
	}
	final := pollJob(t, ts, j.ID, "failed")
	if final.Error == nil || final.Error.Kind != "internal" {
		t.Fatalf("panic job error: %+v, want kind internal", final.Error)
	}
	if !strings.Contains(final.Panic, "injected failure") {
		t.Errorf("panic value not in job record: %q", final.Panic)
	}
	if !strings.Contains(final.Stack, "gatedExec") {
		t.Errorf("stack trace not in job record (got %d bytes)", len(final.Stack))
	}

	m := metricsMap(t, ts)
	if m["panics_total"] != 1 {
		t.Errorf("panics_total = %v, want 1", m["panics_total"])
	}
	if m["jobs_failed_total"] != 1 {
		t.Errorf("jobs_failed_total = %v, want 1", m["jobs_failed_total"])
	}

	// The server keeps serving and the shared workspace reproduces the
	// pre-panic results bit for bit.
	code, after := postVerify(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("post-panic run: status %d: %s", code, after)
	}
	if canonicalise(t, after) != canonicalise(t, baseline) {
		t.Error("post-panic response differs from the baseline — the panic poisoned shared state")
	}
}

// TestHTTPPanicMiddleware: a panic inside any handler (here: a
// deliberately broken one) is contained by the middleware into a 500
// with kind internal and a counter increment — the listener survives.
func TestHTTPPanicMiddleware(t *testing.T) {
	srv := newServer(effpi.NewWorkspace(), serverConfig{defaultTimeout: time.Second})
	t.Cleanup(srv.Close)
	h := srv.recoverHTTP(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("marshalling bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/verify", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "internal" {
		t.Errorf("body %s, want kind internal", rec.Body.String())
	}
	if srv.httpPanics.Value() != 1 {
		t.Errorf("http_panics_total = %d, want 1", srv.httpPanics.Value())
	}
}

// TestGracefulDrain is graceful-shutdown v2 end to end: during a drain,
// readiness flips to not-ready, new submissions are rejected with 503,
// a still-queued job is cancelled with a clear error without ever
// starting, and the in-flight slow job finishes inside the window with
// its synchronous client receiving the full response.
func TestGracefulDrain(t *testing.T) {
	ts, srv := testServerWithSrv(t, serverConfig{workers: 1, queueDepth: 4})
	rec := &hookRecorder{}
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	srv.engine.setExecute(gatedExec(srv, rec, started, release))

	slow := fmt.Sprintf(`{"system": %q}`, slowSystem)
	// A synchronous in-flight request pinned on the gate...
	syncDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(slow))
		if err != nil {
			syncDone <- err
			return
		}
		defer resp.Body.Close()
		buf, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(buf), slowSystem) {
			syncDone <- fmt.Errorf("sync response during drain: status %d body %s", resp.StatusCode, buf)
			return
		}
		syncDone <- nil
	}()
	<-started
	// ...and one job still queued behind it.
	code, _, queued := submitJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("queued job: status %d", code)
	}

	drained := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.drain(ctx)
		close(drained)
	}()

	// Readiness flips immediately; the drain itself is still waiting on
	// the running job.
	waitFor(t, 5*time.Second, func() bool {
		code, _, buf := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
		return code == http.StatusServiceUnavailable && strings.Contains(string(buf), `"reason": "draining"`)
	}, "readyz did not flip to draining")

	// New work is refused while draining.
	code, _, buf := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", slow)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503 (%s)", code, buf)
	}
	var e errorResponse
	if err := json.Unmarshal(buf, &e); err != nil || e.Kind != "draining" {
		t.Errorf("submit while draining: body %s, want kind draining", buf)
	}

	// The queued job was cancelled with a clear error and never started.
	j := pollJob(t, ts, queued.ID, "cancelled")
	if j.Error == nil || !strings.Contains(j.Error.Error, "draining") {
		t.Errorf("drained queued job error: %+v, want a message naming the drain", j.Error)
	}

	// The running job finishes inside the window; its client gets a 200.
	close(release)
	if err := <-syncDone; err != nil {
		t.Error(err)
	}
	select {
	case <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not complete after the running job finished")
	}
	if len(rec.seen) != 1 {
		t.Errorf("execution hook saw %v, want only the in-flight job — the drained queued job must never start", rec.seen)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestJobRetention: the completed-job store is size- and TTL-bounded —
// old terminal jobs age out of the polling window and become 404s.
func TestJobRetention(t *testing.T) {
	ts, srv := testServerWithSrv(t, serverConfig{retain: 2, retainTTL: time.Hour})
	rec := &hookRecorder{}
	srv.engine.setExecute(gatedExec(srv, rec, nil, nil))

	fast := fmt.Sprintf(`{"system": %q}`, fastSystem)
	var ids []string
	for i := 0; i < 3; i++ {
		code, _, j := submitJob(t, ts, fast)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		pollJob(t, ts, j.ID, "done")
		ids = append(ids, j.ID)
	}
	if code, _ := getJob(t, ts, ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest job beyond the size bound: status %d, want 404", code)
	}
	if code, _ := getJob(t, ts, ids[2]); code != http.StatusOK {
		t.Errorf("newest job: status %d, want 200", code)
	}

	// And the TTL bound, on a second server with a tiny window.
	ts2, srv2 := testServerWithSrv(t, serverConfig{retain: 16, retainTTL: 30 * time.Millisecond})
	srv2.engine.setExecute(gatedExec(srv2, rec, nil, nil))
	code, _, j := submitJob(t, ts2, fast)
	if code != http.StatusAccepted {
		t.Fatalf("ttl job: status %d", code)
	}
	pollJob(t, ts2, j.ID, "done")
	waitFor(t, 5*time.Second, func() bool {
		code, _ := getJob(t, ts2, j.ID)
		return code == http.StatusNotFound
	}, "terminal job did not age out of the TTL-bounded store")
}

// TestReadyzFresh: an idle server is ready.
func TestReadyzFresh(t *testing.T) {
	ts := testServer(t, serverConfig{})
	code, _, buf := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
	if code != http.StatusOK || !strings.Contains(string(buf), `"ready": true`) {
		t.Errorf("/readyz on an idle server: status %d body %s", code, buf)
	}
}

// TestSaturationTorture is the acceptance flood: 4× capacity of mixed
// real requests against a small-worker server yields only {200, 202,
// 429}, every 429 carries Retry-After, the queue never grows past its
// depth, and after the flood the server still answers a fresh
// /v1/verify with a verdict byte-identical to the unloaded run.
func TestSaturationTorture(t *testing.T) {
	const (
		workers = 2
		depth   = 3
		flood   = 4 * (workers + depth)
	)
	ts := testServer(t, serverConfig{workers: workers, queueDepth: depth})
	rows := []string{
		"Dining philos. (4, deadlock)",
		"Ping-pong (6 pairs)",
		"Ring (10 elements)",
	}

	// Unloaded baselines, which also warm the shared caches the same way
	// any prior traffic would.
	baselines := make(map[string]string)
	for _, row := range rows {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": %q}`, row))
		if code != http.StatusOK {
			t.Fatalf("baseline %s: status %d: %s", row, code, buf)
		}
		baselines[row] = canonicalise(t, buf)
	}

	type result struct {
		code  int
		retry string
		jobID string
		body  []byte
	}
	results := make([]result, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"system": %q}`, rows[i%len(rows)])
			url, method := ts.URL+"/v1/verify", http.MethodPost
			if i%2 == 0 {
				url = ts.URL + "/v1/jobs"
			}
			req, err := http.NewRequest(method, url, strings.NewReader(body))
			if err != nil {
				results[i] = result{code: -1}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i] = result{code: -1}
				return
			}
			defer resp.Body.Close()
			buf, _ := io.ReadAll(resp.Body)
			r := result{code: resp.StatusCode, retry: resp.Header.Get("Retry-After"), body: buf}
			if resp.StatusCode == http.StatusAccepted {
				var j jobJSON
				if json.Unmarshal(buf, &j) == nil {
					r.jobID = j.ID
				}
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	admitted := 0
	for i, r := range results {
		switch r.code {
		case http.StatusOK, http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
			if ra, err := strconv.Atoi(r.retry); err != nil || ra < 1 {
				t.Errorf("flood %d: 429 without usable Retry-After (%q)", i, r.retry)
			}
		default:
			t.Errorf("flood %d: status %d outside {200, 202, 429}: %s", i, r.code, r.body)
		}
	}
	if admitted == 0 {
		t.Error("flood admitted nothing — backpressure rejected even within-capacity load")
	}

	// Every admitted async job reaches a terminal state.
	for _, r := range results {
		if r.jobID != "" {
			pollJob(t, ts, r.jobID, "done", "failed", "cancelled")
		}
	}

	m := metricsMap(t, ts)
	if hw := m["queue_high_water"]; hw > depth {
		t.Errorf("queue_high_water = %v exceeds the depth %d — the queue is not memory-bounded", hw, depth)
	}

	// After the flood: fresh synchronous runs reproduce the unloaded
	// baselines byte for byte.
	for _, row := range rows {
		code, buf := postVerify(t, ts, fmt.Sprintf(`{"system": %q}`, row))
		if code != http.StatusOK {
			t.Fatalf("post-flood %s: status %d: %s", row, code, buf)
		}
		if canonicalise(t, buf) != baselines[row] {
			t.Errorf("post-flood %s differs from the unloaded baseline", row)
		}
	}
}
