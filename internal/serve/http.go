package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Handler returns the daemon's control-plane mux:
//
//	POST   /jobs              submit a JobSpec, 202 + status (429/503 under load/drain)
//	GET    /jobs              list job statuses
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/result  the deterministic batch export (JSON)
//	GET    /jobs/{id}/events  the job's event log as JSONL; ?follow=1 streams
//	GET    /jobs/{id}/stats.json, /jobs/{id}/metrics   proxied from the live worker
//	DELETE /jobs/{id}         cancel
//	GET    /healthz           liveness (200 while the process serves)
//	GET    /readyz            readiness (503 while draining or queue-full)
//	GET    /metrics           daemon counters, Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/stats.json", s.handleWorkerProxy)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleWorkerProxy)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := io.LimitReader(r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case IsOverload(err):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case IsDraining(err):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	// Only a terminal job has a result to serve: while a worker may
	// still run (or be restarted), whatever sits at the path belongs to
	// an attempt the supervisor has not accepted yet.
	path := filepath.Join(j.Dir, workerResult)
	st := j.State()
	_, err := os.Stat(path)
	if !st.Terminal() || err != nil {
		writeError(w, http.StatusConflict, "job %s is %s; no result yet", j.ID, st)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	http.ServeFile(w, r, path)
}

// handleEvents writes the job's event log as JSONL. With ?follow=1 it
// keeps the connection open, streaming new events until the job
// reaches a state with no more events coming or the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	follow := r.URL.Query().Get("follow") != ""
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	seq := 0
	for {
		events, changed := j.events.since(seq)
		for _, e := range events {
			_ = enc.Encode(e)
			seq = e.Seq + 1
		}
		if flusher != nil {
			flusher.Flush()
		}
		st := j.State()
		if !follow || st.Terminal() || st == StateInterrupted {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-time.After(30 * time.Second):
			return
		}
	}
}

// handleWorkerProxy relays /stats.json and /metrics from the job's
// live worker (the batch CLI's own -statsaddr server), so one daemon
// port exposes per-job live telemetry.
func (s *Server) handleWorkerProxy(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	base := j.statsURL
	j.mu.Unlock()
	if base == "" {
		writeError(w, http.StatusConflict, "job %s has no live worker stats (state %s)", j.ID, j.State())
		return
	}
	resp, err := http.Get(base + "/" + filepath.Base(r.URL.Path))
	if err != nil {
		writeError(w, http.StatusBadGateway, "worker stats: %v", err)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if !s.Cancel(j.ID) {
		writeError(w, http.StatusConflict, "job %s already %s", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, why := s.Ready()
	if !ready {
		writeError(w, http.StatusServiceUnavailable, "not ready: %s", why)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleMetrics exposes daemon-level counters in Prometheus text
// format, alongside the per-worker metrics proxied per job.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	accepted, rejected, shed := s.acceptedTotal, s.rejectedTotal, s.shedTotal
	queued, active, jobs := len(s.queue), s.active, len(s.jobs)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs_accepted_total counter\nricasim_serve_jobs_accepted_total %d\n", accepted)
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs_rejected_total counter\nricasim_serve_jobs_rejected_total %d\n", rejected)
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs_shed_total counter\nricasim_serve_jobs_shed_total %d\n", shed)
	fmt.Fprintf(w, "# TYPE ricasim_serve_worker_restarts_total counter\nricasim_serve_worker_restarts_total %d\n", atomic.LoadInt64(&s.restartsTotal))
	fmt.Fprintf(w, "# TYPE ricasim_serve_worker_crashes_total counter\nricasim_serve_worker_crashes_total %d\n", atomic.LoadInt64(&s.crashesTotal))
	fmt.Fprintf(w, "# TYPE ricasim_serve_worker_hangs_total counter\nricasim_serve_worker_hangs_total %d\n", atomic.LoadInt64(&s.hangsTotal))
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs_queued gauge\nricasim_serve_jobs_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs_active gauge\nricasim_serve_jobs_active %d\n", active)
	fmt.Fprintf(w, "# TYPE ricasim_serve_jobs gauge\nricasim_serve_jobs %d\n", jobs)
}
