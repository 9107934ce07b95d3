package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pipetune"
	"pipetune/api"
)

// fuzzService builds one small service for a fuzz target's whole run.
func fuzzService(f *testing.F) *Service {
	f.Helper()
	sys, err := pipetune.New(pipetune.WithSeed(42), pipetune.WithCorpusSize(128, 64))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := New(Config{System: sys})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Shutdown)
	return svc
}

// FuzzGroundTruthImport feeds POST /v1/groundtruth/import bodies the
// daemon did not write. A body is either refused with 400 and nothing
// applied, or accepted with the store grown by exactly the count the
// response reports; the handler never panics. One store serves the whole
// run, so later inputs meet the width and entries earlier ones left.
// Seeds: the pinned six-entry dump, an empty and a null dump, a body that
// is not JSON, an entry of another width, an invalid configuration and a
// metric out of range.
func FuzzGroundTruthImport(f *testing.F) {
	dump, err := json.Marshal(pinDump())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dump)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`{"entries":[`))
	f.Add([]byte(`{"entries":[{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9}]}`))
	f.Add([]byte(`{"entries":[{"features":[1,2,3],"bestSys":{"cores":0,"memoryGB":8},"metric":0.9}]}`))
	f.Add([]byte(`{"entries":[{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":1e999}]}`))
	svc := fuzzService(f)
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := svc.GroundTruthStats().Entries
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/groundtruth/import", bytes.NewReader(body)))
		after := svc.GroundTruthStats().Entries
		switch rec.Code {
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("refused import changed the store: %d -> %d entries", before, after)
			}
		case http.StatusOK:
			var res api.ImportResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("import response %q: %v", rec.Body, err)
			}
			if after != before+res.Imported || res.Stats.Entries != after {
				t.Fatalf("import of %d took the store %d -> %d, response reports %d", res.Imported, before, after, res.Stats.Entries)
			}
		default:
			t.Fatalf("import = %d %s, want 200 or 400", rec.Code, rec.Body)
		}
	})
}

// FuzzJobRequest feeds buildSpec, the translation of a POST /v1/jobs
// body into a job, requests no client was written to send. It either
// refuses one with ErrBadRequest, or returns a spec whose base
// hyperparameters and system configuration validate and which the cost
// model prices at a finite positive duration — the price fair dispatch
// reads. Seeds: the catalog's first workload at the test sizing,
// each mode and objective, an off-catalog pairing, epochs past the
// range, and names nothing parses.
func FuzzJobRequest(f *testing.F) {
	f.Add("lenet/mnist", "", "", uint64(7), 3, 0)
	f.Add("cnn/fashion", api.ModeTuneV2, api.ObjectiveAccuracy, uint64(0), 0, 4)
	f.Add("bfs/mnist", api.ModeTuneV1, api.ObjectiveAccuracyPerTime, uint64(1), 1000, 1)
	f.Add("lstm/news20", api.ModePipeTune, "", uint64(3), 1001, 0)
	f.Add("resnet/imagenet", "v1", "energy", uint64(0), -1, -1)
	svc := fuzzService(f)
	f.Fuzz(func(t *testing.T, workload, mode, objective string, seed uint64, epochs, maxParallel int) {
		req := api.JobRequest{Workload: workload, Mode: mode, Objective: objective,
			Seed: seed, Epochs: epochs, MaxParallel: maxParallel}
		spec, _, err := svc.buildSpec(req)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("buildSpec(%+v) = %v, want ErrBadRequest", req, err)
			}
			return
		}
		if err := spec.BaseHyper.Validate(); err != nil {
			t.Fatalf("buildSpec(%+v) accepted invalid hyperparameters: %v", req, err)
		}
		if err := spec.BaseSys.Validate(); err != nil {
			t.Fatalf("buildSpec(%+v) accepted an invalid configuration: %v", req, err)
		}
		d, err := svc.cfg.System.PredictTrialDuration(spec.Workload, spec.BaseHyper, spec.BaseSys)
		if err != nil || !(d > 0) || math.IsInf(d, 0) {
			t.Fatalf("buildSpec(%+v): cost model prices the spec at %v, %v", req, d, err)
		}
	})
}
