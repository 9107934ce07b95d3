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
	"pipetune/internal/cluster"
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
// and /healthz of a classed System on the local backend.
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

	classes, err := cluster.EC2Fleet(2, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	classed, _ := newServer(t, Config{System: newSystem(t, pipetune.WithClusterClasses(classes...))})
	const wantHealth = `{"status":"ok","queued":0,"running":0,"workers":2,"jobPolicy":"fifo","execBackend":"local",` +
		`"cluster":{"nodes":6,"spotNodes":3,"onDemandNodes":3,"classes":[` +
		`{"name":"m4.4xlarge","count":1,"cores":16,"memoryGB":64,"speedFactor":1,"hourlyUSD":0.8},` +
		`{"name":"m4.4xlarge-spot","count":1,"cores":16,"memoryGB":64,"spot":true,"speedFactor":1,"hourlyUSD":0.24,"revocationsPerHour":2},` +
		`{"name":"m5.12xlarge","count":1,"cores":48,"memoryGB":192,"speedFactor":2.6,"hourlyUSD":2.304},` +
		`{"name":"m5.12xlarge-spot","count":1,"cores":48,"memoryGB":192,"spot":true,"speedFactor":2.6,"hourlyUSD":0.6912,"revocationsPerHour":2},` +
		`{"name":"m5.24xlarge","count":1,"cores":96,"memoryGB":384,"speedFactor":4.8,"hourlyUSD":4.608},` +
		`{"name":"m5.24xlarge-spot","count":1,"cores":96,"memoryGB":384,"spot":true,"speedFactor":4.8,"hourlyUSD":1.3824,"revocationsPerHour":2}]}}`
	if got := strings.TrimSpace(serve(t, classed, "GET", "/healthz", nil, http.StatusOK)); got != wantHealth {
		t.Errorf("classed local /healthz body\n got %s\nwant %s", got, wantHealth)
	}
}
