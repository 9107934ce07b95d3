package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"pipetune/api"
)

// trainingDigest hashes what a job *trained*: per trial (sorted by ID —
// completion order depends on the simulated schedule, which PipeTune's
// reconfigurations change) the id, the hyperparameters and every epoch's
// loss and accuracy bits. System configurations, durations and energy are
// left out on purpose: they are the simulation half, which the ground
// truth steers. The digest is therefore the same for a spec on any
// backend, cache state, job mode or ground-truth history.
func trainingDigest(res *api.JobResult) string {
	trials := append([]api.TrialRecord(nil), res.Trials...)
	sort.Slice(trials, func(i, j int) bool { return trials[i].ID < trials[j].ID })
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range trials {
		put(uint64(t.ID))
		put(uint64(t.Hyper.BatchSize))
		put(math.Float64bits(t.Hyper.LearningRate))
		put(math.Float64bits(t.Hyper.Dropout))
		put(uint64(t.Hyper.EmbeddingDim))
		put(uint64(t.Hyper.Epochs))
		if t.Result == nil {
			continue
		}
		put(uint64(len(t.Result.Epochs)))
		for _, e := range t.Result.Epochs {
			put(math.Float64bits(e.TrainLoss))
			put(math.Float64bits(e.Accuracy))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest hashes the full JobResult JSON. Only tune-v1 jobs pin it:
// they never consult the ground truth, so every byte is a function of
// the spec.
func resultDigest(res *api.JobResult) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// specDigests is what the gate pins for one (workload, seed).
type specDigests struct {
	Training string `json:"training"`
	V1Result string `json:"v1Result,omitempty"`
}

// gate is the correctness check of one run: every occurrence of a
// (workload, seed) must train the same thing, in either mode, and every
// tune-v1 occurrence must produce the same bytes.
type gate struct {
	seen       map[string]specDigests // by jobSpec.trainKey
	violations []string
}

func newGate() *gate { return &gate{seen: map[string]specDigests{}} }

func (g *gate) fail(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// observe folds one finished job in. A job that did not end done is a
// violation by itself.
func (g *gate) observe(rec jobRecord) {
	if rec.err != nil {
		g.fail("%v", rec.err)
		return
	}
	res := rec.status.Result
	if res == nil || len(res.Trials) == 0 {
		g.fail("job %s (%s) has no trials", rec.id, rec.spec.key())
		return
	}
	key := rec.spec.trainKey()
	d := g.seen[key]
	td := trainingDigest(res)
	switch {
	case d.Training == "":
		d.Training = td
	case d.Training != td:
		g.fail("job %s (%s): training digest %s differs from an earlier occurrence's %s", rec.id, rec.spec.key(), td[:12], d.Training[:12])
	}
	if !rec.spec.pipetune {
		rd, err := resultDigest(res)
		switch {
		case err != nil:
			g.fail("job %s: %v", rec.id, err)
		case d.V1Result == "":
			d.V1Result = rd
		case d.V1Result != rd:
			g.fail("job %s (%s): tune-v1 result digest %s differs from an earlier occurrence's %s", rec.id, rec.spec.key(), rd[:12], d.V1Result[:12])
		}
	}
	g.seen[key] = d
}

// merge folds another run's digests for one spec into the gate.
func (g *gate) merge(from, key string, d specDigests) {
	have, seen := g.seen[key]
	if !seen {
		g.seen[key] = d
		return
	}
	if have.Training != d.Training {
		g.fail("%s: %s trains %s, another run trained %s", from, key, d.Training[:12], have.Training[:12])
	}
	if have.V1Result != "" && d.V1Result != "" && have.V1Result != d.V1Result {
		g.fail("%s: %s tune-v1 result %s, another run produced %s", from, key, d.V1Result[:12], have.V1Result[:12])
	}
	if have.V1Result == "" {
		have.V1Result = d.V1Result
		g.seen[key] = have
	}
}

// goldenPath holds the checked-in digests, relative to the repository
// root the benchmark runs from. Job seeds are fixed, so the file covers
// every run seed at the default -seconds.
const goldenPath = "cmd/bench/testdata/golden.json"

func loadGolden(path string) (map[string]specDigests, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var golden map[string]specDigests
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return golden, nil
}

// compare checks every digest this run saw against the golden file.
// Specs the file does not hold (the extra fresh-remote rounds of a longer
// -seconds) are covered by the within-run equality alone.
func (g *gate) compare(golden map[string]specDigests) {
	for key, d := range g.seen {
		want, ok := golden[key]
		if !ok {
			continue
		}
		if want.Training != d.Training {
			g.fail("%s: training digest %s, golden %s", key, d.Training[:12], want.Training[:12])
		}
		if want.V1Result != "" && d.V1Result != "" && want.V1Result != d.V1Result {
			g.fail("%s: tune-v1 result digest %s, golden %s", key, d.V1Result[:12], want.V1Result[:12])
		}
	}
}

// mergeGolden folds this run's digests into the golden file
// (-update-golden). An entry that exists with a different digest is
// replaced: that is what updating means.
func mergeGolden(path string, seen map[string]specDigests) error {
	golden, err := loadGolden(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if golden == nil {
		golden = map[string]specDigests{}
	}
	for key, d := range seen {
		if old := golden[key]; d.V1Result == "" {
			d.V1Result = old.V1Result
		}
		golden[key] = d
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
