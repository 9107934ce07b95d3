package exec

import (
	"encoding/json"
	"net/http"
)

// Handler serves the execution plane's HTTP surface (mounted by the
// pipetuned service next to the job API):
//
//	POST /v1/stream   worker stream upgrade (101)
//	GET  /v1/fleet    fleet status -> FleetStatus
//
// When RemoteConfig.Token is set, the stream upgrade requires
// "Authorization: Bearer <token>"; GET /v1/fleet is operator-facing and
// stays open, like /healthz.
func (r *Remote) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", r.authed(r.handleStream))
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	return mux
}

// wireError is the JSON error body of non-2xx responses.
type wireError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// authed enforces the shared worker token when one is configured.
func (r *Remote) authed(h http.HandlerFunc) http.HandlerFunc {
	if r.cfg.Token == "" {
		return h
	}
	want := "Bearer " + r.cfg.Token
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Authorization") != want {
			writeJSON(w, http.StatusUnauthorized, wireError{Error: "exec: missing or invalid worker token"})
			return
		}
		h(w, req)
	}
}

func (r *Remote) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Fleet())
}
