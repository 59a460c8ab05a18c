// The v2 async jobs surface: a thin status-code mapping over the engine's
// transport-free job registry. A solve that outlives a request/response
// round-trip is submitted once, polled cheaply (status reads are a mutex
// grab and an atomic load — no solver contact), fetched when done, and
// cancelled when the client loses interest; finished jobs stay
// retrievable for the configured TTL.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
)

// jobStatusBody is the wire form of a job status.
type jobStatusBody struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Algo          string  `json:"algo"`
	Seed          int64   `json:"seed"`
	Checkpoints   int64   `json:"checkpoints"`
	ElapsedMs     float64 `json:"elapsedMs"`
	Error         string  `json:"error,omitempty"`
	StatusURL     string  `json:"statusUrl"`
	ResultURL     string  `json:"resultUrl"`
	CreatedUnixMs int64   `json:"createdUnixMs"`
}

func statusBody(st engine.JobStatus) jobStatusBody {
	return jobStatusBody{
		ID:            st.ID,
		State:         string(st.State),
		Algo:          string(st.Algo),
		Seed:          st.Seed,
		Checkpoints:   st.Progress.Checkpoints,
		ElapsedMs:     float64(st.Progress.Elapsed) / float64(time.Millisecond),
		Error:         st.Error,
		StatusURL:     "/v2/jobs/" + st.ID,
		ResultURL:     "/v2/jobs/" + st.ID + "/result",
		CreatedUnixMs: st.Created.UnixMilli(),
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// handleJobSubmit accepts the same query parameters and body formats as
// /v1/solve (timeout_ms excepted: a detached job has no waiting request to
// deadline) and answers 202 with the job's initial status.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	spec, timeout, err := s.specFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if timeout > 0 {
		writeError(w, http.StatusBadRequest,
			errors.New("httpapi: timeout_ms does not apply to async jobs; cancel via DELETE /v2/jobs/{id}"))
		return
	}
	// Decoding is synchronous — the body arrives on this request — so it
	// stays under the request context and the same admission policy as v1.
	inst := s.decodeBody(r.Context(), w, r.Body)
	if inst == nil {
		return
	}
	st, err := s.jobs.Submit(inst, spec)
	switch {
	case errors.Is(err, engine.ErrTooManyJobs):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, engine.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v2/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, statusBody(st))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Status(r.PathValue("id"))
	if errors.Is(err, engine.ErrUnknownJob) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusBody(st))
}

// handleJobResult streams the finished job's result with the same encoder
// as /v1/solve, so for one (instance, Spec) the async and sync bodies are
// identical modulo the cached/elapsedMs fields.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, engine.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, engine.ErrJobNotDone):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The job was cancelled before completing: the result is gone for
		// good (a re-submit is the remedy), which is what 410 says.
		writeError(w, http.StatusGone, fmt.Errorf("httpapi: job was cancelled: %w", err))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		streamResult(w, res)
	}
}

// handleJobDelete cancels a queued or running job (it settles as canceled
// and is kept, queryable, for the TTL like any finished job). Cancelling a
// job that already finished — or cancelling twice — answers 409 so the
// client learns its cancel did nothing.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, engine.ErrUnknownJob):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, engine.ErrJobFinished):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, map[string]bool{"canceled": true})
	}
}
