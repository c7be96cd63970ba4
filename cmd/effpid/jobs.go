package main

// jobs.go is the admission-controlled asynchronous job engine of effpid.
// Every verification — the async job API and the synchronous /v1/verify
// alike — passes through one bounded FIFO queue drained by a fixed pool
// of workers, so the server's concurrency is a configuration knob
// (-workers, -queue-depth) instead of a function of the arrival rate.
// When the queue is full, admission fails fast with a saturation error
// whose Retry-After is computed from observed service times; nothing is
// ever buffered beyond the queue's capacity.
//
// A job's life: queued → running → done | failed | cancelled. Queued
// jobs can be cancelled before they start (they then never touch the
// engine); running jobs are cancelled through their context. Terminal
// jobs are retained in a size- and TTL-bounded store so clients can poll
// results after completion. Panics inside a job are contained: the job
// fails with kind "internal" (panic value and stack preserved in the job
// record), a counter increments, and the worker moves on — the engine's
// shared caches are append-only and schedule-independent (DESIGN.md),
// so a half-finished exploration never poisons later requests.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"effpi"
)

// jobState enumerates the lifecycle states of a job.
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	case jobCancelled:
		return "cancelled"
	}
	return "unknown"
}

func (s jobState) terminal() bool {
	return s == jobDone || s == jobFailed || s == jobCancelled
}

// jobProgress is a point-in-time exploration snapshot, fed from the
// session's progress events while the job runs.
type jobProgress struct {
	States   int `json:"states"`
	Expanded int `json:"expanded"`
	Edges    int `json:"edges"`
}

// job is one admitted verification request. All mutable fields are
// guarded by the engine's mutex; done is closed exactly once, when the
// job reaches a terminal state.
type job struct {
	id  string
	seq int64 // admission order; queue position derives from it
	req *verifyRequest

	// baseCtx is what the run derives its context from: the submitting
	// HTTP request's context for synchronous (submit-and-wait) jobs — a
	// dropped client cancels the work — and the engine's background
	// context for async jobs, which outlive their submit request.
	baseCtx context.Context
	// timeout is the effective per-job deadline, resolved at admission
	// (request value capped by the server's -max-timeout, server default
	// otherwise). It is measured from the moment the job starts running:
	// queue wait is bounded by admission control, not by the deadline.
	timeout time.Duration

	state         jobState
	enqueued      time.Time
	started       time.Time
	finished      time.Time
	cancel        context.CancelFunc // set while running
	userCancelled bool               // DELETE seen; classify as cancelled
	progress      jobProgress

	// Terminal payload: resp on done; status/kind/errMsg on failed or
	// cancelled; panicValue/stack when the failure was a contained panic.
	resp       *verifyResponse
	status     int
	kind       string
	errMsg     string
	panicValue string
	stack      string

	done chan struct{}
}

// errSaturated is the admission failure of a full queue. RetryAfter is
// the server's service-time estimate for when capacity frees up.
type errSaturated struct {
	RetryAfter int // seconds, >= 1
}

func (e *errSaturated) Error() string {
	return fmt.Sprintf("queue is full; retry in ~%ds", e.RetryAfter)
}

// errDraining is the admission failure of a shutting-down server.
var errDraining = errors.New("server is draining; not accepting new jobs")

// execFunc is the body of a job: the production engine binds it to
// server.verify; tests substitute gated or panicking stages.
type execFunc func(ctx context.Context, req *verifyRequest, progress func(effpi.Event)) (*verifyResponse, int, string, error)

// jobEngine is the admission controller and worker pool.
type jobEngine struct {
	srv     *server
	queue   chan *job
	workers int

	retain    int           // completed-job store size bound
	retainTTL time.Duration // completed-job store age bound

	execute execFunc

	// baseCtx parents every async job; cancelled when the engine is
	// fully shut down (after the drain window), so stragglers die.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*job
	completed []*job  // terminal jobs in completion order (eviction FIFO)
	seq       int64   // last admission sequence number
	taken     int64   // jobs dequeued by workers so far
	ewmaMS    float64 // exponentially weighted mean job service time
	draining  bool

	wg sync.WaitGroup
}

// ewmaAlpha weights the most recent service time in the Retry-After
// estimator: high enough to track load shifts within a few jobs, low
// enough that one outlier does not swing the estimate.
const ewmaAlpha = 0.3

func newJobEngine(srv *server, workers, depth, retain int, retainTTL time.Duration) *jobEngine {
	ctx, cancel := context.WithCancel(context.Background())
	e := &jobEngine{
		srv:        srv,
		queue:      make(chan *job, depth),
		workers:    workers,
		retain:     retain,
		retainTTL:  retainTTL,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	e.execute = func(ctx context.Context, req *verifyRequest, progress func(effpi.Event)) (*verifyResponse, int, string, error) {
		return srv.verify(ctx, req, progress)
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is catastrophic enough to surface loudly,
		// but job ids only need uniqueness; fall back to the sequence.
		return fmt.Sprintf("j-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// submit admits a job or rejects it: *errSaturated when the queue is
// full, errDraining during shutdown. baseCtx ties the job to its
// submitter (sync) or to the engine (async). The returned view is the
// job as admitted, snapshotted under the same lock: an idle worker may
// start the job as soon as submit returns.
func (e *jobEngine) submit(req *verifyRequest, baseCtx context.Context, timeout time.Duration) (*job, jobJSON, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(time.Now())
	if e.draining {
		return nil, jobJSON{}, errDraining
	}
	if len(e.queue) == cap(e.queue) {
		retry := e.retryAfterLocked()
		e.srv.rejections.Add(1)
		e.srv.retryAfter.Set(int64(retry))
		return nil, jobJSON{}, &errSaturated{RetryAfter: retry}
	}
	e.seq++
	j := &job{
		id:       newJobID(),
		seq:      e.seq,
		req:      req,
		baseCtx:  baseCtx,
		timeout:  timeout,
		state:    jobQueued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	e.jobs[j.id] = j
	// The send cannot block: occupancy was checked above and every send
	// happens under the mutex, so the queue has a free slot.
	e.queue <- j
	e.srv.submitted.Add(1)
	if hw := int64(len(e.queue)); hw > e.srv.queueHighWater.Value() {
		e.srv.queueHighWater.Set(hw)
	}
	return j, e.viewLocked(j), nil
}

// retryAfterLocked estimates, in whole seconds, when a freed queue slot
// is likely: (observed mean service time) × (jobs ahead of a new
// arrival) / workers. Before any job has completed it assumes one
// second per job; the result is never below one second, so a 429 always
// carries a usable Retry-After.
func (e *jobEngine) retryAfterLocked() int {
	per := e.ewmaMS
	if per <= 0 {
		per = 1000
	}
	running := 0
	for _, j := range e.jobs {
		if j.state == jobRunning {
			running++
		}
	}
	ahead := len(e.queue) + running
	secs := int(math.Ceil(per * float64(ahead) / float64(e.workers) / 1000))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// setExecute swaps the job body (tests: gated or panicking stages).
func (e *jobEngine) setExecute(fn execFunc) {
	e.mu.Lock()
	e.execute = fn
	e.mu.Unlock()
}

// get returns a job by id.
func (e *jobEngine) get(id string) (*job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(time.Now())
	j, ok := e.jobs[id]
	return j, ok
}

// cancelJob cancels a job: a queued job is finalised immediately (it
// will never start), a running one has its context cancelled and
// finishes as cancelled shortly after. Terminal jobs are left alone.
func (e *jobEngine) cancelJob(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch j.state {
	case jobQueued:
		e.finishCancelledLocked(j, "job cancelled while queued")
	case jobRunning:
		j.userCancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// worker is the pool loop: pop, skip anything no longer runnable, run.
func (e *jobEngine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.mu.Lock()
		e.taken++
		if j.state != jobQueued {
			// Cancelled (or drained) while waiting; never starts.
			e.mu.Unlock()
			continue
		}
		if err := j.baseCtx.Err(); err != nil {
			// The synchronous submitter hung up before the job started.
			e.finishCancelledLocked(j, "submitter disconnected before the job started")
			e.mu.Unlock()
			continue
		}
		j.state = jobRunning
		j.started = time.Now()
		ctx, cancel := context.WithCancel(j.baseCtx)
		if j.timeout > 0 {
			ctx, cancel = context.WithTimeout(j.baseCtx, j.timeout)
		}
		j.cancel = cancel
		e.mu.Unlock()

		e.run(ctx, j)
		cancel()
	}
}

// run executes one job with panic containment: a panicking stage fails
// that job (panic value and stack preserved in the record, panics_total
// incremented) and never unwinds past the worker.
func (e *jobEngine) run(ctx context.Context, j *job) {
	defer func() {
		if r := recover(); r != nil {
			stack := string(debug.Stack())
			e.srv.jobPanics.Add(1)
			log.Printf("effpid: panic in job %s contained: %v\n%s", j.id, r, stack)
			e.finish(j, nil, http.StatusInternalServerError, "internal",
				fmt.Errorf("panic during job execution: %v", r), fmt.Sprint(r), stack)
		}
	}()
	progress := func(ev effpi.Event) {
		if ev.Kind != effpi.EventExploreProgress {
			return
		}
		e.mu.Lock()
		j.progress = jobProgress{States: ev.States, Expanded: ev.Expanded, Edges: ev.Edges}
		e.mu.Unlock()
	}
	e.mu.Lock()
	exec := e.execute
	e.mu.Unlock()
	resp, status, kind, err := exec(ctx, j.req, progress)
	e.finish(j, resp, status, kind, err, "", "")
}

// finish moves a job to its terminal state, updates the service-time
// estimator and the per-outcome metrics, and retires it into the
// completed store. Idempotent: a job that was finalised concurrently
// (e.g. cancelled during drain) is left as-is.
func (e *jobEngine) finish(j *job, resp *verifyResponse, status int, kind string, err error, panicValue, stack string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.finished = time.Now()
	durMS := float64(j.finished.Sub(j.started).Microseconds()) / 1000
	if e.ewmaMS == 0 {
		e.ewmaMS = durMS
	} else {
		e.ewmaMS = ewmaAlpha*durMS + (1-ewmaAlpha)*e.ewmaMS
	}
	switch {
	case err == nil:
		j.state = jobDone
		j.resp = resp
		e.srv.jobsDone.Add(1)
	case j.userCancelled:
		j.state = jobCancelled
		j.status = http.StatusConflict
		j.kind = "cancelled"
		j.errMsg = "job cancelled"
		e.srv.jobsCancelled.Add(1)
	default:
		j.state = jobFailed
		j.status = status
		j.kind = kind
		j.errMsg = err.Error()
		j.panicValue = panicValue
		j.stack = stack
		e.srv.jobsFailed.Add(1)
	}
	e.srv.observeLatency(j.state.String(), durMS)
	e.retireLocked(j)
	close(j.done)
}

// finishCancelledLocked finalises a job that never ran (cancelled while
// queued, drained at shutdown, or abandoned by its submitter).
func (e *jobEngine) finishCancelledLocked(j *job, msg string) {
	if j.state.terminal() {
		return
	}
	j.finished = time.Now()
	j.state = jobCancelled
	j.status = http.StatusServiceUnavailable
	j.kind = "cancelled"
	j.errMsg = msg
	e.srv.jobsCancelled.Add(1)
	e.retireLocked(j)
	close(j.done)
}

// retireLocked appends a terminal job to the retention store and evicts
// past the size bound.
func (e *jobEngine) retireLocked(j *job) {
	e.completed = append(e.completed, j)
	for len(e.completed) > e.retain {
		old := e.completed[0]
		e.completed = e.completed[1:]
		delete(e.jobs, old.id)
	}
}

// sweepLocked drops terminal jobs older than the retention TTL. Called
// lazily from the admission and lookup paths, so an idle server holds a
// stale store but a serving one converges.
func (e *jobEngine) sweepLocked(now time.Time) {
	if e.retainTTL <= 0 {
		return
	}
	for len(e.completed) > 0 && now.Sub(e.completed[0].finished) > e.retainTTL {
		old := e.completed[0]
		e.completed = e.completed[1:]
		delete(e.jobs, old.id)
	}
}

// queuePositionLocked is the 1-based number of dequeues until this
// queued job's turn (1 = next). The queue is strict FIFO and sequence
// numbers are assigned in admission order, so position is a subtraction.
func (e *jobEngine) queuePositionLocked(j *job) int {
	if j.state != jobQueued {
		return 0
	}
	pos := int(j.seq - e.taken)
	if pos < 1 {
		pos = 1
	}
	return pos
}

// counts returns point-in-time queue/job gauges for /metrics and
// /readyz.
func (e *jobEngine) counts() (queued, running, depth, capacity int, draining bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		switch j.state {
		case jobQueued:
			queued++
		case jobRunning:
			running++
		}
	}
	return queued, running, len(e.queue), cap(e.queue), e.draining
}

// Shutdown drains the engine: stop admitting (submit returns
// errDraining and /readyz flips not-ready), finalise every still-queued
// job as cancelled — they never start —, then wait for running jobs to
// finish inside ctx's window. When the window closes with jobs still
// running, their contexts are cancelled and Shutdown waits for the
// (prompt, see the context-plumbing contract) cancellation to land.
func (e *jobEngine) Shutdown(ctx context.Context) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.draining = true
	for _, j := range e.jobs {
		if j.state == jobQueued {
			e.finishCancelledLocked(j, "server draining: job cancelled before it started")
		}
	}
	// Safe: every send happens under the mutex and checks draining first.
	close(e.queue)
	e.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		e.mu.Lock()
		for _, j := range e.jobs {
			if j.state == jobRunning && j.cancel != nil {
				j.cancel()
			}
		}
		e.mu.Unlock()
		<-finished
	}
	e.baseCancel()
}
