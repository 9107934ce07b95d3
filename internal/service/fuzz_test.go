package service

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// FuzzStoredDocument feeds a done job's stored document — deflated
// result JSON — bytes the service did not render. inflate returns the
// document's whole JSON, exactly what a fresh flate reader reads to its
// end, or an error and nothing; withResult attaches a result decoded
// from that whole JSON, or returns an error and the status as it was;
// replay, the event log a late subscriber reads, derives one trial event
// per trial of that whole JSON and the done state event, or returns an
// error and nil — it succeeds only on whole JSON, and wherever withResult
// reads a result it replays that result's trials; for the rendered
// document, the log a live subscriber read. None panics,
// and none hands back part of a response. The inflater goes back to the
// pool after every input, so later inputs also read through one that
// earlier failures left behind. Seeds: a real rendered document,
// truncated and bit-flipped copies, nothing, and deflated JSON torn
// mid-array.
func FuzzStoredDocument(f *testing.F) {
	svc := fuzzService(f)
	st, err := svc.Submit(api.JobRequest{Workload: "lenet/mnist", Mode: api.ModeTuneV1, Seed: 7, Epochs: 1})
	if err != nil {
		f.Fatal(err)
	}
	su, err := svc.Subscribe(st.ID)
	if err != nil {
		f.Fatal(err)
	}
	live := su.Replay
	for ev := range su.Events {
		live = append(live, ev)
	}
	su.Cancel()
	id := st.ID
	svc.mu.Lock()
	doc := []byte(svc.jobs[id].doc)
	svc.mu.Unlock()
	f.Add(doc)
	for _, n := range []int{len(doc) - 1, len(doc) / 2, 8, 1} {
		f.Add(doc[:n])
	}
	for _, i := range []int{0, len(doc) / 2, len(doc) - 1} {
		flipped := bytes.Clone(doc)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	var torn bytes.Buffer
	fw, _ := flate.NewWriter(&torn, flate.BestSpeed)
	_, _ = fw.Write([]byte(`{"trials":[`))
	_ = fw.Close()
	f.Add(torn.Bytes())

	head := api.JobStatus{ID: id, State: api.StateDone}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wholeErr := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
		in := inflaters.Get().(*inflater)
		got, err := in.inflate(string(data))
		switch {
		case err != nil && got != nil:
			t.Fatalf("inflate failed (%v) and still returned %d bytes", err, len(got))
		case err == nil && wholeErr != nil:
			t.Fatalf("inflate returned %d bytes of a stream flate cannot read to its end (%v)", len(got), wholeErr)
		case err == nil && !bytes.Equal(got, whole):
			t.Fatalf("inflate returned %d bytes, the whole stream is %d", len(got), len(whole))
		}
		inflaters.Put(in)

		events, replayErr := replay(id, string(data))
		switch {
		case replayErr != nil && events != nil:
			t.Fatalf("replay failed (%v) and still returned %d events", replayErr, len(events))
		case replayErr != nil && bytes.Equal(data, doc):
			t.Fatalf("the rendered document does not replay: %v", replayErr)
		case replayErr == nil && bytes.Equal(data, doc) && !reflect.DeepEqual(events, live):
			t.Fatalf("the rendered document replays %d events, a live subscriber read %d", len(events), len(live))
		case replayErr == nil && (wholeErr != nil || !json.Valid(whole)):
			t.Fatalf("replay returned %d events from a document that is not whole JSON (flate: %v)", len(events), wholeErr)
		}

		st, err := withResult(head, string(data))
		if err != nil {
			if st.Result != nil || st.ID != head.ID || st.State != head.State {
				t.Fatalf("withResult failed (%v) and returned %+v", err, st)
			}
			return
		}
		if st.Result == nil {
			t.Fatal("withResult succeeded without a result")
		}
		if wholeErr != nil || !json.Valid(whole) {
			t.Fatalf("withResult attached a result from a document that is not whole JSON (flate: %v)", wholeErr)
		}
		if replayErr != nil {
			for _, tr := range st.Result.Trials {
				if tr.Result == nil { // the one whole result replay refuses
					return
				}
			}
			t.Fatalf("replay failed (%v) on a document withResult reads", replayErr)
		}
		n := len(st.Result.Trials)
		if len(events) != n+1 || events[n] != (api.Event{Type: api.EventState, JobID: id, Seq: n + 1, State: api.StateDone}) {
			t.Fatalf("replay of %d trials is %d events: %+v", n, len(events), events)
		}
		for i, tr := range st.Result.Trials {
			want := api.TrialEvent{TrialID: tr.ID, Accuracy: tr.Result.Accuracy, Duration: tr.Result.Duration, EnergyJ: tr.Result.EnergyJ, Epochs: len(tr.Result.Epochs)}
			if ev := events[i]; ev.Type != api.EventTrial || ev.JobID != id || ev.Seq != i+1 || ev.Trial == nil || *ev.Trial != want {
				t.Fatalf("replay event %d is %+v for trial %d", i, ev, tr.ID)
			}
		}
	})
}
