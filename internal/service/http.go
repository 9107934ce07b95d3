package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pipetune/api"
	"pipetune/internal/metrics"
)

// Handler returns the daemon's HTTP API (see package api for the
// surface). With a remote execution plane configured, the worker stream
// upgrade and the fleet status are mounted next to the job API on the
// same listener.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/groundtruth", s.handleGroundTruth)
	mux.HandleFunc("GET /v1/groundtruth/export", s.handleGroundTruthExport)
	mux.HandleFunc("POST /v1/groundtruth/import", s.handleGroundTruthImport)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	// Prometheus text exposition plus the same registry as typed JSON (the
	// api.MetricsSnapshot surface behind client.Metrics).
	mux.Handle("GET /metrics", metrics.Handler(s.reg))
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if s.cfg.Remote != nil {
		wh := s.cfg.Remote.Handler()
		mux.Handle("POST /v1/stream", wh)
		mux.Handle("GET /v1/fleet", wh)
	}
	return mux
}

// writeJSON emits a JSON body with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps service errors onto HTTP status codes.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrTerminal):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShutdown):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, api.Error{Message: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: decode body: %v", ErrBadRequest, err))
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

// handleJob serves one job. A done job's body is byte for byte what
// writeJSON would encode for the status with its Result attached: Result
// is api.JobStatus's last field, so that is the small header's encoding
// with the stored document spliced in before the closing brace.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, doc, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if st.State != api.StateDone {
		writeJSON(w, http.StatusOK, st)
		return
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	result, err := in.inflate(doc)
	head, herr := json.Marshal(st)
	if err := errors.Join(err, herr); err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head[:len(head)-1])
	_, _ = io.WriteString(w, `,"result":`)
	_, _ = w.Write(result)
	_, _ = io.WriteString(w, "}\n")
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as Server-Sent Events: one
// `event: trial` frame per completed trial (replayed from the start for
// late subscribers) and a final `event: state` frame, after which the
// stream closes. A subscriber evicted for falling behind instead receives
// a terminal `event: lagged` frame — without it the early close would be
// indistinguishable from a finished job, and the client would never learn
// it must re-subscribe and replay.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	su, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer su.Cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errors.New("service: streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(ev api.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range su.Replay {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-su.Events:
			if !ok {
				if su.Lagged() {
					send(api.Event{Type: api.EventLagged, JobID: r.PathValue("id")})
				}
				return
			}
			if !send(ev) {
				return
			}
		}
	}
}

func (s *Service) handleGroundTruth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.GroundTruthStats())
}

// handleGroundTruthExport serves the database in the snapshot wire format
// — the same JSON a store writes to disk, so an export can seed another
// daemon's -gt file directly. The dump is buffered before any header is
// written: a store failure mid-encode becomes an honest HTTP 500 instead
// of a 200 with a truncated body the importer cannot tell from a complete
// dump, and the Content-Length lets clients detect torn transfers.
// Buffering is safe because exports are bounded: the registry's retention
// and the store's compaction keep the entry count small relative to
// memory.
func (s *Service) handleGroundTruthExport(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := s.ExportGroundTruth(&buf); err != nil {
		s.cfg.Logf("service: ground-truth export failed: %v", err)
		writeErr(w, fmt.Errorf("service: export ground truth: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="groundtruth.json"`)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleGroundTruthImport merges a dump into the shared database — the
// cross-deployment warm start of §5.4 over HTTP.
func (s *Service) handleGroundTruthImport(w http.ResponseWriter, r *http.Request) {
	var dump api.GroundTruthDump
	if err := json.NewDecoder(r.Body).Decode(&dump); err != nil {
		writeErr(w, fmt.Errorf("%w: decode body: %v", ErrBadRequest, err))
		return
	}
	added, err := s.ImportGroundTruth(dump.Entries)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ImportResult{Imported: added, Stats: s.GroundTruthStats()})
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}
