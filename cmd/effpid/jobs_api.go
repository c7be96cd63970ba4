package main

// jobs_api.go is the wire surface of the async job engine:
//
//	POST   /v1/jobs       submit → 202 {"id": ...} (+ Location header)
//	GET    /v1/jobs/{id}  state, queue position, progress, result
//	DELETE /v1/jobs/{id}  cancel — a queued job never starts, a running
//	                      one is cancelled through its context
//
// Job submission shares decodeVerifyRequest (and with it the admission
// caps) and the engine's queue with the synchronous /v1/verify, so both
// paths degrade identically under load: the only difference is whether
// the client waits on the HTTP connection or polls the job id.

import (
	"fmt"
	"net/http"
	"time"
)

// jobJSON is the wire view of a job.
type jobJSON struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// QueuePosition is the 1-based distance from the front of the queue
	// (1 = next to start); present only while queued.
	QueuePosition int `json:"queue_position,omitempty"`
	// Progress is the latest exploration snapshot of a running job.
	Progress *jobProgress `json:"progress,omitempty"`
	// QueuedMS is the time the job spent (or has so far spent) waiting
	// for a worker; RunningMS its service time so far (or total).
	QueuedMS  float64 `json:"queued_ms"`
	RunningMS float64 `json:"running_ms,omitempty"`
	// Result is the verification response of a done job.
	Result *verifyResponse `json:"result,omitempty"`
	// Error describes a failed or cancelled job.
	Error *errorResponse `json:"error,omitempty"`
	// Panic and Stack are set when the failure was a contained panic
	// inside the job's execution: the recovered value and its stack.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// view renders a job's current state for the wire.
func (e *jobEngine) view(j *job) jobJSON {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewLocked(j)
}

// viewLocked is view with e.mu already held.
func (e *jobEngine) viewLocked(j *job) jobJSON {
	v := jobJSON{ID: j.id, State: j.state.String()}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	switch j.state {
	case jobQueued:
		v.QueuePosition = e.queuePositionLocked(j)
		v.QueuedMS = ms(time.Since(j.enqueued))
	case jobRunning:
		p := j.progress
		v.Progress = &p
		v.QueuedMS = ms(j.started.Sub(j.enqueued))
		v.RunningMS = ms(time.Since(j.started))
	default: // terminal
		if !j.started.IsZero() {
			v.QueuedMS = ms(j.started.Sub(j.enqueued))
			v.RunningMS = ms(j.finished.Sub(j.started))
		} else {
			// Cancelled before it ever started.
			v.QueuedMS = ms(j.finished.Sub(j.enqueued))
		}
		if j.state == jobDone {
			v.Result = j.resp
		} else {
			v.Error = &errorResponse{Error: j.errMsg, Kind: j.kind}
			v.Panic = j.panicValue
			v.Stack = j.stack
		}
	}
	return v
}

// result extracts a terminal job's payload for the synchronous path.
func (e *jobEngine) result(j *job) (resp *verifyResponse, status int, kind, errMsg string, state jobState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return j.resp, j.status, j.kind, j.errMsg, j.state
}

// handleJobSubmit admits an async verification job. The job outlives
// the submitting connection; poll GET /v1/jobs/{id} for its state.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, timeout, ok := s.decodeVerifyRequest(w, r)
	if !ok {
		return
	}
	j, view, err := s.engine.submit(req, s.engine.baseCtx, timeout)
	if err != nil {
		s.rejectSubmit(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJSON(w, http.StatusAccepted, view)
}

// handleJobGet reports a job's state: queue position while queued,
// exploration progress while running, the result or error when
// terminal. Terminal jobs age out of the store (size- and TTL-bounded),
// after which the id is a 404.
func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.engine.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not-found",
			fmt.Errorf("unknown job %q (completed jobs are retained only for a bounded time)", id))
		return
	}
	s.writeJSON(w, http.StatusOK, s.engine.view(j))
}

// handleJobDelete cancels a job. Cancelling a queued job finalises it
// immediately — it will never start exploring; cancelling a running job
// cancels its context (the engine's cancellation is prompt) and the
// final state lands shortly after. Cancelling a terminal job is a
// no-op; the response always carries the job's current view.
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.engine.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "not-found", fmt.Errorf("unknown job %q", id))
		return
	}
	s.engine.cancelJob(j)
	s.writeJSON(w, http.StatusOK, s.engine.view(j))
}
