// Command effpid is the long-lived verification service of the effpi-go
// reproduction: an HTTP JSON API over the public effpi package, serving
// concurrent verification requests from one shared Workspace — so the
// hash-consed interner and transition memos warm up across requests
// instead of being rebuilt per call, with a size-bounded eviction policy
// keeping the resident set bounded.
//
// Every verification is admitted through a bounded job queue drained by
// a fixed worker pool (-workers, -queue-depth): the server's concurrency
// is a configuration knob, not a function of the arrival rate. A full
// queue rejects new work fast — 429 with a Retry-After computed from
// observed service times — instead of oversubscribing the box, and a
// panic inside any single job is contained to that job's failure record.
//
// Usage:
//
//	effpid [-addr :8080] [-timeout 30s] [-max-timeout 5m]
//	       [-max N] [-max-states-cap N] [-par N] [-cache-budget N]
//	       [-workers N] [-queue-depth N] [-retain N] [-retain-ttl D]
//	       [-drain D] [-pprof]
//
// Endpoints:
//
//	POST   /v1/verify   {"source": "...", "binds": [{"name":"c","type":"Chan[Int]"}],
//	                     "properties": [{"kind":"deadlock-free","channels":["c"]}]}
//	                    — or {"system": "Dining philos. (5, deadlock)"} to run a
//	                    benchmark row (omit "properties" for its six Fig. 9 columns).
//	                    Waits for the result on the connection; admitted through
//	                    the same queue as the job API, so a saturated server
//	                    answers 429 + Retry-After.
//	POST   /v1/jobs     same body; returns 202 {"id": ...} immediately and runs
//	                    the verification asynchronously.
//	GET    /v1/jobs/{id}  job state (queued/running/done/failed/cancelled),
//	                    queue position, exploration progress, and — when done —
//	                    the full verification result.
//	DELETE /v1/jobs/{id}  cancel: a queued job never starts, a running one is
//	                    cancelled through its context.
//	GET    /healthz     liveness (200 while the process serves)
//	GET    /readyz      readiness (503 while saturated or draining — take the
//	                    instance out of rotation, don't kill it)
//	GET    /metrics     expvar counters + workspace cache stats (JSON): queue
//	                    depth and high-water, jobs by state, rejections,
//	                    retry_after_seconds, per-outcome latency histograms
//	GET    /debug/pprof/*  Go runtime profiles — only with the -pprof flag
//	                    (profiling endpoints expose internals; opt in on
//	                    instances you control)
//
// Requests are cancellable: each runs under a deadline (its "timeout_ms",
// capped by -max-timeout, defaulting to -timeout, measured from job
// start), and a dropped client connection aborts a synchronous request's
// exploration. A timed-out request returns 504 and leaves the shared
// caches fully usable.
//
// Shutdown (SIGINT/SIGTERM) drains: /readyz flips to not-ready, admission
// stops, running jobs get the -drain window to finish, still-queued jobs
// are cancelled with a clear error, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"effpi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request timeout")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "hard cap on requested timeouts")
	maxStates := flag.Int("max", 0, "default exploration state bound (0 = engine default)")
	maxStatesCap := flag.Int("max-states-cap", 0, "admission cap on requested exploration bounds (0 = none)")
	par := flag.Int("par", 0, "default batch executor width per job: explorations and checks run at once (0 = GOMAXPROCS; each exploration is serial)")
	workers := flag.Int("workers", 0, "concurrent verification jobs (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 64, "admission queue depth; beyond it requests get 429")
	retain := flag.Int("retain", 256, "completed jobs retained for polling")
	retainTTL := flag.Duration("retain-ttl", 15*time.Minute, "completed-job retention age bound")
	drain := flag.Duration("drain", 15*time.Second, "shutdown window for running jobs to finish")
	cacheBudget := flag.Int("cache-budget", 0, "workspace memo budget (0 = default, <0 = unlimited)")
	pprof := flag.Bool("pprof", false, "expose Go runtime profiling under /debug/pprof/ (off by default)")
	flag.Parse()

	ws := effpi.NewWorkspace(effpi.WithCacheBudget(*cacheBudget))
	srv := newServer(ws, serverConfig{
		defaultTimeout: *timeout,
		maxTimeout:     *maxTimeout,
		maxStates:      *maxStates,
		maxStatesCap:   *maxStatesCap,
		parallelism:    *par,
		workers:        *workers,
		queueDepth:     *queueDepth,
		retain:         *retain,
		retainTTL:      *retainTTL,
		pprof:          *pprof,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown v2: on the first signal, readiness flips to
	// not-ready and admission stops (new submits get 503), still-queued
	// jobs are cancelled with a clear error, and running jobs get the
	// -drain window to finish before their contexts are cancelled. Only
	// then does the listener close — synchronous waiters whose jobs
	// completed during the drain still receive their responses.
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		fmt.Fprintf(os.Stderr, "effpid: draining (up to %s for running jobs)\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		srv.drain(drainCtx)
		cancel()
		closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(closeCtx)
	}()

	fmt.Fprintf(os.Stderr, "effpid: listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "effpid: %v\n", err)
		os.Exit(1)
	}
}
