package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipetune"
	"pipetune/api"
)

// serve runs one request through the service's handler and returns the
// body, failing unless the status is want.
func serve(t *testing.T, svc *Service, method, path string, body []byte, want int) string {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("%s %s = %d %s, want %d", method, path, rec.Code, rec.Body, want)
	}
	return rec.Body.String()
}

// pinDump is a fixed six-entry ground-truth dump: two profile families
// of three, each entry a distinct known-best configuration.
func pinDump() api.GroundTruthDump {
	var dump api.GroundTruthDump
	for i := 0; i < 6; i++ {
		f := make([]float64, 58)
		for k := range f {
			f[k] = float64((i/3)*10 + k%7 + i%3)
		}
		sys := pipetune.DefaultSysConfig()
		sys.Cores = 2 + 2*(i%3)
		dump.Entries = append(dump.Entries, api.GroundTruthEntry{Features: f, BestSys: sys, Metric: 0.5 + 0.1*float64(i)})
	}
	return dump
}

// TestReportBodiesPinned holds the tenant-visible reports to literals
// recorded before their types became aliases of the owning layers' own:
// GET /v1/groundtruth fresh and after an import, the import response,
// and /healthz on the local backend.
func TestReportBodiesPinned(t *testing.T) {
	svc, _ := newServer(t, Config{})
	dump, err := json.Marshal(pinDump())
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		method, path string
		body         []byte
		want         string
	}{
		{"GET", "/v1/groundtruth", nil, `{"entries":0,"hits":0,"misses":0,"rev":0}`},
		{"POST", "/v1/groundtruth/import", dump, `{"imported":6,"stats":{"entries":6,"hits":0,"misses":0,"rev":6}}`},
		{"GET", "/v1/groundtruth", nil, `{"entries":6,"hits":0,"misses":0,"rev":6}`},
	} {
		if got := strings.TrimSpace(serve(t, svc, step.method, step.path, step.body, http.StatusOK)); got != step.want {
			t.Errorf("%s %s body\n got %s\nwant %s", step.method, step.path, got, step.want)
		}
	}

	const wantHealth = `{"status":"ok","queued":0,"running":0,"workers":2,"jobPolicy":"fifo","execBackend":"local"}`
	if got := strings.TrimSpace(serve(t, svc, "GET", "/healthz", nil, http.StatusOK)); got != wantHealth {
		t.Errorf("local /healthz body\n got %s\nwant %s", got, wantHealth)
	}
}
