package main

// HTTP layer of effpid: one long-lived effpi.Workspace serves every
// request, so concurrent and repeated verifications share the interner
// and transition memos (with the workspace's eviction budget keeping the
// resident set bounded). Every verification is admitted through the job
// engine (jobs.go): a bounded queue drained by a fixed worker pool, so
// load beyond capacity is rejected fast (429 + Retry-After) instead of
// oversubscribing the box. The handler set:
//
//	POST   /v1/verify     verify and wait (admitted through the queue)
//	POST   /v1/jobs       submit an async verification job (202 + id)
//	GET    /v1/jobs/{id}  job state, queue position, progress, result
//	DELETE /v1/jobs/{id}  cancel (dequeue-before-start included)
//	GET    /healthz       liveness probe (always 200 while serving)
//	GET    /readyz        readiness: 503 while saturated or draining
//	GET    /metrics       expvar counters + workspace cache stats (JSON)
//
// Verdicts and witnesses are schedule-independent: the engine guarantees
// byte-identical results at any parallelism and under any interleaving
// of concurrent identical requests, so replaying a request stream always
// reproduces its responses (modulo the duration fields, which are
// wall-clock measurements). Witness structure (state ids, label indices)
// is additionally independent of what else warmed the shared caches;
// only the *rendered representative types* inside a witness can pick an
// ≡-equivalent spelling first interned by a sibling workload sharing the
// same environment (see DESIGN.md, workspace sharing).

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"effpi"
)

// server carries the shared workspace, the job engine, the per-request
// limits, and the expvar counter set. Counters live in an unregistered
// expvar.Map so multiple servers (tests) can coexist in one process.
type server struct {
	ws     *effpi.Workspace
	engine *jobEngine

	defaultTimeout time.Duration // applied when a request names none
	maxTimeout     time.Duration // hard cap on requested timeouts
	maxStates      int           // default exploration bound
	maxStatesCap   int           // admission cap on requested bounds (0 = none)
	parallelism    int           // default batch executor width (0 = GOMAXPROCS)
	pprof          bool          // serve /debug/pprof/ (opt-in)

	start   time.Time
	metrics *expvar.Map
	// Counter handles into metrics (expvar.Map lookups allocate).
	requests, failures, pass, fail, cancelled, inflight *expvar.Int
	// Symmetry accounting: how many properties were checked on orbit
	// representatives, and the cumulative covered/explored state counts —
	// /metrics derives the fleet-wide orbit ratio from the pair.
	symmetricProps, symmetryStatesCovered, symmetryStatesExplored *expvar.Int
	// Partial-order accounting: how many properties ran on ample-set
	// reduced state spaces, and the cumulative reduced state counts they
	// explored (the full-space count is never computed under POR, so no
	// ratio pair exists — the reduced total is the honest metric).
	porProps, porStatesExplored *expvar.Int
	// Admission and job-engine accounting: submissions admitted,
	// rejections (queue full), the last Retry-After handed out, the
	// queue's high-water occupancy, and terminal job counts by outcome.
	submitted, rejections, retryAfter, queueHighWater *expvar.Int
	jobsDone, jobsFailed, jobsCancelled               *expvar.Int
	// Containment accounting: panics recovered inside job execution
	// (panics_total) and inside HTTP handlers (http_panics_total), plus
	// JSON encode failures that would otherwise vanish silently.
	jobPanics, httpPanics, encodeFailures *expvar.Int
	// latency holds the per-outcome coarse latency histograms; buckets
	// are registered in the metrics map as latency_<outcome>_le_<N>ms.
	latency map[string]*latencyHist
}

type serverConfig struct {
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxStates      int
	// maxStatesCap rejects, at admission, requests asking for a larger
	// exploration bound than the operator allows (0 = no cap).
	maxStatesCap int
	parallelism  int
	// workers is the job engine's pool size (0 = GOMAXPROCS): the
	// maximum number of concurrently running verifications.
	workers int
	// queueDepth bounds the admission queue (0 = 64): requests beyond
	// workers+queueDepth are rejected with 429.
	queueDepth int
	// retain / retainTTL bound the completed-job store (0 = 256 jobs,
	// 15 minutes).
	retain    int
	retainTTL time.Duration
	// pprof exposes the Go runtime profiling endpoints under
	// /debug/pprof/. Off by default: the profiles leak goroutine stacks
	// and heap contents, which a verification service should not serve
	// unless its operator asked for them.
	pprof bool
}

// latencyBucketMS are the coarse per-outcome latency histogram bounds.
var latencyBucketMS = []int{1, 5, 25, 100, 500, 2500, 10000}

// latencyHist is one outcome's histogram: cumulative "≤ bound" buckets,
// an overflow bucket, and a count, all living in the metrics map.
type latencyHist struct {
	le    []*expvar.Int
	gt    *expvar.Int
	count *expvar.Int
}

func (h *latencyHist) observe(ms float64) {
	h.count.Add(1)
	for i, bound := range latencyBucketMS {
		if ms <= float64(bound) {
			h.le[i].Add(1)
			return
		}
	}
	h.gt.Add(1)
}

func newServer(ws *effpi.Workspace, cfg serverConfig) *server {
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 64
	}
	if cfg.retain <= 0 {
		cfg.retain = 256
	}
	if cfg.retainTTL <= 0 {
		cfg.retainTTL = 15 * time.Minute
	}
	s := &server{
		ws:             ws,
		defaultTimeout: cfg.defaultTimeout,
		maxTimeout:     cfg.maxTimeout,
		maxStates:      cfg.maxStates,
		maxStatesCap:   cfg.maxStatesCap,
		parallelism:    cfg.parallelism,
		pprof:          cfg.pprof,
		start:          time.Now(),
		metrics:        new(expvar.Map).Init(),
		latency:        make(map[string]*latencyHist),
	}
	newInt := func(name string) *expvar.Int {
		v := new(expvar.Int)
		s.metrics.Set(name, v)
		return v
	}
	s.requests = newInt("requests_total")
	s.failures = newInt("failures_total")
	s.pass = newInt("verdicts_pass_total")
	s.fail = newInt("verdicts_fail_total")
	s.cancelled = newInt("cancelled_total")
	s.inflight = newInt("requests_inflight")
	s.symmetricProps = newInt("symmetric_properties_total")
	s.symmetryStatesCovered = newInt("symmetry_states_covered_total")
	s.symmetryStatesExplored = newInt("symmetry_states_explored_total")
	s.porProps = newInt("por_properties_total")
	s.porStatesExplored = newInt("por_states_explored_total")
	s.submitted = newInt("jobs_submitted_total")
	s.rejections = newInt("rejections_total")
	s.retryAfter = newInt("retry_after_seconds")
	s.queueHighWater = newInt("queue_high_water")
	s.jobsDone = newInt("jobs_done_total")
	s.jobsFailed = newInt("jobs_failed_total")
	s.jobsCancelled = newInt("jobs_cancelled_total")
	s.jobPanics = newInt("panics_total")
	s.httpPanics = newInt("http_panics_total")
	s.encodeFailures = newInt("encode_failures_total")
	for _, outcome := range []string{jobDone.String(), jobFailed.String(), jobCancelled.String()} {
		h := &latencyHist{
			gt:    newInt(fmt.Sprintf("latency_%s_gt_%dms", outcome, latencyBucketMS[len(latencyBucketMS)-1])),
			count: newInt("latency_" + outcome + "_count"),
		}
		for _, bound := range latencyBucketMS {
			h.le = append(h.le, newInt(fmt.Sprintf("latency_%s_le_%dms", outcome, bound)))
		}
		s.latency[outcome] = h
	}
	s.engine = newJobEngine(s, cfg.workers, cfg.queueDepth, cfg.retain, cfg.retainTTL)
	return s
}

// observeLatency records one terminal job's service time into its
// outcome's histogram.
func (s *server) observeLatency(outcome string, ms float64) {
	if h, ok := s.latency[outcome]; ok {
		h.observe(ms)
	}
}

// Close drains the job engine (used by tests; main goes through drain
// with its configured window).
func (s *server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.engine.Shutdown(ctx)
}

// drain runs graceful-shutdown v2: readiness flips to not-ready and
// admission stops immediately, still-queued jobs are cancelled with a
// clear error, and running jobs get ctx's window to finish before their
// contexts are cancelled.
func (s *server) drain(ctx context.Context) {
	s.engine.Shutdown(ctx)
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprof {
		// Explicit registrations rather than net/http/pprof's package
		// side effect: the server never serves http.DefaultServeMux, so
		// the profiles exist only when the operator opted in.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.recoverHTTP(mux)
}

// recoverHTTP is the panic containment middleware around every handler:
// a panic anywhere in request handling (marshalling, a handler bug, an
// engine path reached outside a job) becomes that request's 500 and a
// counter increment, never a crashed listener. http.ErrAbortHandler is
// net/http's own abort protocol and is re-raised.
func (s *server) recoverHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.httpPanics.Add(1)
			log.Printf("effpid: panic serving %s %s contained: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already wrote headers this
			// appends to a broken body, which the client detects via the
			// truncated/invalid JSON.
			s.writeError(w, http.StatusInternalServerError, "internal", errors.New("internal server error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// ---- wire shapes -----------------------------------------------------

// verifyRequest is the POST /v1/verify and POST /v1/jobs body. Exactly
// one of Source (an .epi program, typed under Binds), System (a
// benchmark row name from Fig. 9 / the large sweep), and GoSource (a Go
// file written against the effpi combinators, statically extracted)
// must be set.
type verifyRequest struct {
	Source string `json:"source,omitempty"`
	System string `json:"system,omitempty"`
	// GoSource is a Go source file using the runtime/actor combinator
	// packages. Its protocol entries are statically extracted
	// (effpi.ExtractGoSource); FAIL witnesses carry the file:line
	// positions of the extracted actions.
	GoSource string `json:"go_source,omitempty"`
	// Entry names the entry function to verify when GoSource defines
	// several; optional when there is exactly one.
	Entry string     `json:"entry,omitempty"`
	Binds []bindJSON `json:"binds,omitempty"`
	// Properties to verify. A System request may omit them to run the
	// row's own six Fig. 9 properties.
	Properties []propJSON `json:"properties,omitempty"`
	// MaxStates bounds each exploration (0 = server default; values
	// above the server's admission cap are rejected with 400).
	MaxStates int `json:"max_states,omitempty"`
	// Parallelism is the job's batch executor width: how many of its
	// explorations and checks run at once (0 = server default; each
	// exploration is serial, and verdicts are identical at any value).
	Parallelism int `json:"parallelism,omitempty"`
	// EarlyExit selects on-the-fly checking. Where early_exit, symmetry
	// and partial_order engage is one planner rule (DESIGN.md §batch).
	EarlyExit bool `json:"early_exit,omitempty"`
	// Symmetry selects exploration-time symmetry reduction: "off"
	// (default) or "on" (orbit representatives under the system's
	// channel permutation group — interchangeable-bundle classes and
	// ring rotations; verdicts identical, FAIL witnesses
	// permutation-lifted to concrete runs and replay-validated). Any
	// other value is a 400 naming the valid modes.
	Symmetry string `json:"symmetry,omitempty"`
	// PartialOrder selects exploration-time partial-order reduction:
	// "off" (default) or "on" (ample transition subsets from the type
	// semantics' independence relation; verdicts identical, FAIL
	// witnesses are concrete runs of the reduced space and
	// replay-validated).
	PartialOrder string `json:"partial_order,omitempty"`
	// TimeoutMS caps this request's service time (0 = server default;
	// capped by the server's -max-timeout). The clock starts when the
	// job starts running — queue wait is bounded by admission control,
	// not by the deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

type bindJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// propJSON is the structured property shape (see
// effpi.PropertyFromSpec; the CLIs use the flag-string twin
// PropertyFromFlags).
type propJSON struct {
	Kind     string   `json:"kind"`
	Channels []string `json:"channels,omitempty"`
	From     string   `json:"from,omitempty"`
	To       string   `json:"to,omitempty"`
	// Open selects open-process mode (default: closed composition, the
	// right mode for self-contained systems).
	Open bool `json:"open,omitempty"`
}

type verifyResponse struct {
	// Type is the inferred λπ⩽ type of a Source request (or the
	// extracted type of a GoSource request), in concrete syntax; System
	// echoes a System request's row name; Entry names the extracted
	// entry function of a GoSource request.
	Type   string `json:"type,omitempty"`
	System string `json:"system,omitempty"`
	Entry  string `json:"entry,omitempty"`
	// Diagnostics are non-fatal extraction findings of a GoSource
	// request (e.g. shadowed-mailbox warnings), positioned file:line.
	Diagnostics []string     `json:"diagnostics,omitempty"`
	Results     []resultJSON `json:"results"`
	// DurationMS is the whole request's wall-clock time.
	DurationMS float64 `json:"duration_ms"`
}

type resultJSON struct {
	Property string `json:"property"`
	Kind     string `json:"kind"`
	Holds    bool   `json:"holds"`
	States   int    `json:"states"`
	// StatesExplored is the number of states the engine actually visited
	// when exploration-time symmetry reduction was in effect: orbit
	// representatives, each standing for a whole equivalence class of the
	// States count above. Absent (0) when it equals States — i.e. no
	// symmetry was requested or none was found.
	StatesExplored int `json:"states_explored,omitempty"`
	// OrbitRatio is States / StatesExplored (≥ 1), the per-property
	// collapse factor of the symmetry mode; absent when no symmetry
	// engaged.
	OrbitRatio float64 `json:"orbit_ratio,omitempty"`
	// PartialOrder reports that ample-set partial-order reduction was in
	// effect for this property: States and StatesExplored both count the
	// reduced space (the full interleaving count is never computed).
	PartialOrder bool `json:"partial_order,omitempty"`
	// Expanded is set under early exit: how many of the discovered
	// states were materialised before the search concluded.
	Expanded        int     `json:"expanded,omitempty"`
	EarlyExit       bool    `json:"early_exit,omitempty"`
	ProductStates   int     `json:"product_states"`
	AutomatonStates int     `json:"automaton_states"`
	DurationMS      float64 `json:"duration_ms"`
	// Witness is the replay-validated counterexample lasso of a FAIL
	// (absent for PASS and for ev-usage failures, which are existential
	// and have no single-run witness).
	Witness *effpi.WitnessJSON `json:"witness,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad-request, parse, type, bound,
	// timeout, saturated, draining, cancelled, not-found, internal.
	Kind string `json:"kind"`
}

// ---- handlers --------------------------------------------------------

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// handleReadyz is the readiness probe — deliberately distinct from
// /healthz: a saturated or draining server is alive (keep it in the
// process group) but should not receive new traffic (take it out of the
// load balancer).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	queued, running, depth, capacity, draining := s.engine.counts()
	ready := !draining && depth < capacity
	body := map[string]any{
		"ready":          ready,
		"queue_depth":    depth,
		"queue_capacity": capacity,
		"jobs_queued":    queued,
		"jobs_running":   running,
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		if draining {
			body["reason"] = "draining"
		} else {
			body["reason"] = "saturated"
		}
	}
	s.writeJSON(w, status, body)
}

// handleMetrics serves the expvar counters plus point-in-time workspace
// and queue gauges as one flat JSON object, built by marshalling a map
// (sorted keys) — never by hand-assembling JSON text.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.ws.CacheStats()
	queued, running, depth, capacity, draining := s.engine.counts()
	out := make(map[string]any, 64)
	s.metrics.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			out[kv.Key] = v.Value()
			return
		}
		// Every metric today is an *expvar.Int; a future non-Int var
		// still round-trips through its JSON representation.
		out[kv.Key] = json.RawMessage(kv.Value.String())
	})
	// Derived gauge: fleet-wide orbit collapse factor across every
	// symmetric property so far (1.0 until symmetry has engaged).
	orbit := 1.0
	if e := s.symmetryStatesExplored.Value(); e > 0 {
		orbit = float64(s.symmetryStatesCovered.Value()) / float64(e)
	}
	out["orbit_ratio"] = orbit
	out["cache_caches"] = st.Caches
	out["cache_memos"] = st.Memos
	out["cache_evictions"] = st.Evictions
	out["uptime_ms"] = time.Since(s.start).Milliseconds()
	out["queue_depth"] = depth
	out["queue_capacity"] = capacity
	out["jobs_queued"] = queued
	out["jobs_running"] = running
	// ready as 0/1 keeps the document uniformly numeric.
	ready := int64(1)
	if draining || depth == capacity {
		ready = 0
	}
	out["ready"] = ready

	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		s.encodeFailures.Add(1)
		log.Printf("effpid: encoding /metrics: %v", err)
		s.writeError(w, http.StatusInternalServerError, "internal", errors.New("encoding metrics"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(buf, '\n')); err != nil {
		s.encodeFailures.Add(1)
		log.Printf("effpid: writing /metrics: %v", err)
	}
}

// decodeVerifyRequest decodes and shape-validates a verification
// request and resolves its effective deadline; admission-level cost
// caps (max_states, timeout) are enforced here, before anything is
// queued. On failure the error response has been written.
func (s *server) decodeVerifyRequest(w http.ResponseWriter, r *http.Request) (*verifyRequest, time.Duration, bool) {
	var req verifyRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("decoding request body: %w", err))
		return nil, 0, false
	}
	// One JSON value per request: a second value after the first
	// ({"system":"x"}{"system":"y"}) is a malformed body, not two
	// requests — without this check the trailing bytes were silently
	// discarded.
	if dec.More() {
		s.writeError(w, http.StatusBadRequest, "parse", errors.New("request body has trailing data after the JSON object"))
		return nil, 0, false
	}
	set := 0
	for _, v := range []string{req.Source, req.System, req.GoSource} {
		if v != "" {
			set++
		}
	}
	if set != 1 {
		s.writeError(w, http.StatusBadRequest, "bad-request", errors.New("exactly one of \"source\", \"system\" and \"go_source\" must be set"))
		return nil, 0, false
	}
	// Zero means "server default" for each of these; a negative value
	// would slip past the cap below and then reach the exploration as
	// "unset", so it is rejected outright.
	for _, f := range []struct {
		name string
		v    int
	}{{"max_states", req.MaxStates}, {"parallelism", req.Parallelism}, {"timeout_ms", req.TimeoutMS}} {
		if f.v < 0 {
			s.writeError(w, http.StatusBadRequest, "bad-request", fmt.Errorf("%s must not be negative, got %d", f.name, f.v))
			return nil, 0, false
		}
	}
	if s.maxStatesCap > 0 && req.MaxStates > s.maxStatesCap {
		s.writeError(w, http.StatusBadRequest, "bad-request",
			fmt.Errorf("max_states %d exceeds the server's cap of %d", req.MaxStates, s.maxStatesCap))
		return nil, 0, false
	}
	// timeout_ms is compared with the cap in milliseconds before it is
	// converted: the product with time.Millisecond wraps for values past
	// ~292 years, and a wrapped (negative or tiny) duration would slip
	// under the cap.
	timeout := s.defaultTimeout
	if ms := int64(req.TimeoutMS); ms > 0 {
		switch {
		case s.maxTimeout > 0 && ms > s.maxTimeout.Milliseconds():
			timeout = s.maxTimeout
		case ms > int64(math.MaxInt64/time.Millisecond):
			s.writeError(w, http.StatusBadRequest, "bad-request",
				fmt.Errorf("timeout_ms %d exceeds the largest representable deadline", req.TimeoutMS))
			return nil, 0, false
		default:
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if s.maxTimeout > 0 && timeout > s.maxTimeout {
		timeout = s.maxTimeout
	}
	return &req, timeout, true
}

// rejectSubmit maps an admission failure onto the wire: 429 with a
// Retry-After header for saturation, 503 for a draining server.
func (s *server) rejectSubmit(w http.ResponseWriter, err error) {
	var sat *errSaturated
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", strconv.Itoa(sat.RetryAfter))
		s.writeError(w, http.StatusTooManyRequests, "saturated", err)
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "draining", err)
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err)
	}
}

// handleVerify is the synchronous path, rebuilt as submit-and-wait
// through the job queue: it shares one admission policy with the async
// API, so a saturated server answers 429 here too instead of piling up
// unbounded explorations.
func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := time.Now()

	req, timeout, ok := s.decodeVerifyRequest(w, r)
	if !ok {
		return
	}
	// The job's base context is the request context: a dropped client
	// cancels a running job and makes a queued one be skipped unstarted.
	j, _, err := s.engine.submit(req, r.Context(), timeout)
	if err != nil {
		s.rejectSubmit(w, err)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client gone; the engine observes the same context and winds
		// the job down. Nothing useful can be written.
		return
	}
	resp, status, kind, errMsg, state := s.engine.result(j)
	if state == jobDone {
		resp.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	s.writeError(w, status, kind, errors.New(errMsg))
}

// verify resolves the request into a session + property list, runs the
// batch, and assembles the response. The returned status/kind classify
// a non-nil error for the wire. progress, when non-nil, receives the
// session's streaming events (the job engine feeds them into the job's
// progress snapshot).
func (s *server) verify(ctx context.Context, req *verifyRequest, progress func(effpi.Event)) (*verifyResponse, int, string, error) {
	symmetry := effpi.SymmetryOff
	if req.Symmetry != "" {
		var err error
		if symmetry, err = effpi.ParseSymmetry(req.Symmetry); err != nil {
			return nil, http.StatusBadRequest, "bad-request", err
		}
	}
	partialOrder := effpi.PartialOrderOff
	if req.PartialOrder != "" {
		var err error
		if partialOrder, err = effpi.ParsePartialOrder(req.PartialOrder); err != nil {
			return nil, http.StatusBadRequest, "bad-request", err
		}
	}
	opts := []effpi.Option{
		effpi.WithMaxStates(pick(req.MaxStates, s.maxStates)),
		effpi.WithParallelism(pick(req.Parallelism, s.parallelism)),
		effpi.WithEarlyExit(req.EarlyExit),
		effpi.WithSymmetry(symmetry),
		effpi.WithPartialOrder(partialOrder),
	}
	if progress != nil {
		opts = append(opts, effpi.WithProgress(progress))
	}

	var (
		sess  *effpi.Session
		props []effpi.Property
		resp  = &verifyResponse{}
		smap  *effpi.SourceMap
		err   error
	)
	switch {
	case req.GoSource != "":
		if len(req.Properties) == 0 {
			return nil, http.StatusBadRequest, "bad-request", errors.New("a go_source request needs at least one property")
		}
		if len(req.Binds) > 0 {
			return nil, http.StatusBadRequest, "bad-request", errors.New("binds are not applicable to a go_source request (the environment is extracted)")
		}
		ext, err := effpi.ExtractGoSource("request.go", req.GoSource)
		if err != nil {
			return nil, http.StatusBadRequest, "parse", err
		}
		sys, diags, selErr := selectEntry(ext, req.Entry)
		resp.Diagnostics = diags
		if selErr != nil {
			return nil, http.StatusUnprocessableEntity, "type", selErr
		}
		sess, err = s.ws.NewSessionFromGo(sys, opts...)
		if err != nil {
			return nil, http.StatusBadRequest, "bad-request", err
		}
		smap = sys.Map
		resp.Entry = sys.Name
		resp.Type = effpi.FormatType(sys.Type)
	case req.Source != "":
		// Shape validation first: a structurally invalid request must be
		// a stable 400, not whichever expensive stage fails first.
		if len(req.Properties) == 0 {
			return nil, http.StatusBadRequest, "bad-request", errors.New("a source request needs at least one property")
		}
		for _, b := range req.Binds {
			opts = append(opts, effpi.WithBind(b.Name, b.Type))
		}
		sess, err = s.ws.NewSession(req.Source, opts...)
		if err != nil {
			return nil, http.StatusBadRequest, "parse", err
		}
		t, err := sess.Check(ctx)
		if err != nil {
			return nil, http.StatusUnprocessableEntity, "type", err
		}
		resp.Type = effpi.FormatType(t)
	default:
		row, ok := effpi.BenchSystemByName(req.System)
		if !ok {
			return nil, http.StatusNotFound, "bad-request", fmt.Errorf("unknown benchmark system %q", req.System)
		}
		if len(req.Binds) > 0 {
			return nil, http.StatusBadRequest, "bad-request", errors.New("binds are not applicable to a system request")
		}
		sess, err = s.ws.NewSessionFromType(row.Env, row.Type, opts...)
		if err != nil {
			return nil, http.StatusBadRequest, "bad-request", err
		}
		resp.System = row.Name
		if len(req.Properties) == 0 {
			props = append(props, row.Props...)
		}
	}
	for _, p := range req.Properties {
		prop, err := effpi.PropertyFromSpec(p.Kind, p.Channels, p.From, p.To, !p.Open)
		if err != nil {
			return nil, http.StatusBadRequest, "bad-request", err
		}
		props = append(props, prop)
	}

	outs, err := sess.VerifyAll(ctx, props...)
	if err != nil {
		status, kind := s.classify(err)
		return nil, status, kind, err
	}
	for _, o := range outs {
		res := resultJSON{
			Property:        o.Property.String(),
			Kind:            o.Property.Kind.String(),
			Holds:           o.Holds,
			States:          o.States,
			Expanded:        o.Expanded,
			EarlyExit:       o.EarlyExit,
			ProductStates:   o.ProductStates,
			AutomatonStates: o.AutomatonStates,
			DurationMS:      float64(o.Duration.Microseconds()) / 1000,
		}
		if o.StatesExplored > 0 && o.StatesExplored < o.States {
			res.StatesExplored = o.StatesExplored
			res.OrbitRatio = float64(o.States) / float64(o.StatesExplored)
			s.symmetricProps.Add(1)
			s.symmetryStatesCovered.Add(int64(o.States))
			s.symmetryStatesExplored.Add(int64(o.StatesExplored))
		}
		if o.PartialOrder {
			res.PartialOrder = true
			res.StatesExplored = o.StatesExplored
			s.porProps.Add(1)
			s.porStatesExplored.Add(int64(o.StatesExplored))
		}
		if o.Holds {
			s.pass.Add(1)
		} else {
			s.fail.Add(1)
			if o.Property.Kind != effpi.EventualOutput {
				w, werr := effpi.WitnessToJSONMapped(o, smap)
				if werr != nil {
					// A FAIL whose witness does not replay means the checker
					// lied; that is an internal error, not a verdict.
					return nil, http.StatusInternalServerError, "internal", werr
				}
				res.Witness = w
			}
		}
		resp.Results = append(resp.Results, res)
	}
	return resp, 0, "", nil
}

// selectEntry resolves a go_source extraction to the one entry to
// verify: fatal diagnostics refuse the request (they are the error),
// non-fatal ones travel as response diagnostics; with no explicit
// entry name, exactly one extracted entry must exist.
func selectEntry(ext *effpi.GoExtraction, entry string) (*effpi.GoSystem, []string, error) {
	var diags []string
	for _, d := range ext.Diagnostics {
		if d.Fatal {
			return nil, diags, fmt.Errorf("extraction refused: %s", d)
		}
		diags = append(diags, d.String())
	}
	if entry != "" {
		for _, sys := range ext.Systems {
			if sys.Name == entry {
				return sys, diags, nil
			}
		}
		return nil, diags, fmt.Errorf("entry %q not found among the extracted entries", entry)
	}
	switch len(ext.Systems) {
	case 0:
		return nil, diags, errors.New("go_source defines no protocol entry (want func Name() runtime.Proc)")
	case 1:
		return ext.Systems[0], diags, nil
	}
	names := make([]string, len(ext.Systems))
	for i, sys := range ext.Systems {
		names[i] = sys.Name
	}
	return nil, diags, fmt.Errorf("go_source defines %d entries (%v); set \"entry\" to pick one", len(ext.Systems), names)
}

// classify maps a verification error to wire status and kind.
func (s *server) classify(err error) (status int, kind string) {
	var bound *effpi.BoundExceededError
	var typeErr *effpi.TypeError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.cancelled.Add(1)
		return http.StatusGatewayTimeout, "timeout"
	case errors.As(err, &bound):
		return http.StatusUnprocessableEntity, "bound"
	case errors.As(err, &typeErr):
		return http.StatusUnprocessableEntity, "type"
	}
	return http.StatusInternalServerError, "internal"
}

// writeError is the single counting point for failed requests, so
// failures_total covers every error kind exactly once.
func (s *server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	s.failures.Add(1)
	s.writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

// writeJSON writes v as the response body. Encode failures cannot change
// the already-written status, but they are no longer silent: each one is
// logged and counted (encode_failures_total).
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeFailures.Add(1)
		log.Printf("effpid: encoding %T response: %v", v, err)
	}
}

// pick returns the request value when set, the server default otherwise.
func pick(req, def int) int {
	if req != 0 {
		return req
	}
	return def
}
