package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// This file is the HTTP/JSON API over the Scheduler:
//
//	POST   /v1/generate        submit a generate job (202 + JobStatus)
//	POST   /v1/risk            submit a risk job (202 + JobStatus)
//	GET    /v1/jobs/{id}       job status; ?wait=5s long-polls until the
//	                           job is terminal or the wait expires
//	GET    /v1/jobs/{id}/result  result payload (raw float32 LE for
//	                           generate, a RiskReport JSON for risk),
//	                           with the X-Decwi-Sha256 digest header
//	DELETE /v1/jobs/{id}       cancel a queued/running job, or evict a
//	                           terminal record
//
// Admission pressure maps onto transport semantics: quota and
// queue-full reject with 429 + Retry-After, a draining server with
// 503 + Retry-After, and validation failures with 400 — the scheduler's
// typed errors are the single source of that mapping.

// maxBodyBytes bounds a submission body; a JobSpec is a few hundred
// bytes, so 1 MiB is generous without letting a client stream garbage.
const maxBodyBytes = 1 << 20

// maxWait caps the ?wait= long-poll interval.
const maxWait = 60 * time.Second

// Server is the HTTP facade over one Scheduler.
type Server struct {
	sched *Scheduler
}

// NewServer wraps sched; the caller owns the scheduler's lifecycle
// (Drain on shutdown).
func NewServer(sched *Scheduler) *Server {
	return &Server{sched: sched}
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", s.submitHandler(KindGenerate))
	mux.HandleFunc("POST /v1/risk", s.submitHandler(KindRisk))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /debug/jobs/{id}", s.handleDebugJob)
	return mux
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a scheduler error onto its transport status.
func writeError(w http.ResponseWriter, err error) {
	var verr *ValidationError
	switch {
	case errors.As(err, &verr):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: verr.Error()})
	case errors.Is(err, ErrQuota), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// submitHandler decodes, validates and admits a job of the given kind.
// The decoder is strict (unknown fields are 400s): a misspelled knob
// must never silently alter the replay tuple a client thinks it stored.
func (s *Server) submitHandler(kind JobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid job spec: %v", err)})
			return
		}
		if spec.Kind != "" && spec.Kind != kind {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error: fmt.Sprintf("kind %q does not match the %s endpoint", spec.Kind, kind)})
			return
		}
		spec.Kind = kind
		job, err := s.sched.SubmitTraced(spec, r.Header.Get("traceparent"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	job := s.sched.Get(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return nil
	}
	return job
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid wait %q", waitStr)})
			return
		}
		if wait > maxWait {
			wait = maxWait
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
		case <-r.Context().Done():
			return // client went away; nothing to write
		}
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleResult serves a done job's payload: the wire bytes encoded and
// digested once at completion, sent as one write with their digest in
// X-Decwi-Sha256. A job not yet terminal gets 202 + Retry-After with its
// status; a failed or cancelled one gets 409.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	res, state := job.Result()
	switch state {
	case StateDone:
	case StateFailed, StateCancelled:
		writeJSON(w, http.StatusConflict, job.Status())
		return
	default:
		// Not terminal yet: the client should long-poll the status
		// endpoint, or just retry.
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	if job.Spec.Kind == KindRisk {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set("X-Decwi-Sha256", res.sha)
	w.Header().Set("Content-Length", strconv.Itoa(len(res.raw)))
	start := s.sched.now()
	_, _ = w.Write(res.raw) // a failed write means the client is gone; nothing is left to tell it
	// Stream-out lands on the (already sealed) trace as an
	// externally-timed span: the download happens after the job went
	// terminal, so it sits at the root level rather than under the
	// closed "job" span.
	job.trace.Add("stream-out", 0, start, s.sched.now(), "", int64(len(res.raw)))
}

// handleDebugJobs serves the flight recorder's retained-trace listing.
// 404 with tracing off: the endpoint's absence is itself the signal
// that the server runs untraced (-flight 0).
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	rec := s.sched.FlightRecorder()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled"})
		return
	}
	writeJSON(w, http.StatusOK, rec.Jobs())
}

// handleDebugJob serves one job's complete span tree, looked up by job
// id or trace id.
func (s *Server) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	rec := s.sched.FlightRecorder()
	if rec == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "flight recorder disabled"})
		return
	}
	tr, ok := rec.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job or trace id"})
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	// Terminal records are evicted; live jobs are cancelled (their
	// record stays until terminal + a later DELETE or retention evicts
	// it, so the client can still observe the cancellation).
	if !s.sched.Remove(job.ID) {
		job.Cancel()
	}
	w.WriteHeader(http.StatusNoContent)
}
