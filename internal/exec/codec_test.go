package exec

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// sampleAssignment builds a representative assignment for codec tests.
func sampleAssignment() Assignment {
	h := params.DefaultHyper()
	h.Epochs = 3
	return Assignment{
		LeaseID:      "ls-000042",
		Attempt:      2,
		Workload:     workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
		Hyper:        h,
		Sys:          params.DefaultSysConfig(),
		Seed:         0xdeadbeefcafe,
		StreamEpochs: true,
		Trainer:      TrainerConfig{TrainSize: 96, TestSize: 48, Load: 1.5, DataSeed: 0x0da7a5eed, CacheBytes: 32 << 20},
	}
}

// trialOf is the daemon-side trial a grant of asg is encoded from.
func trialOf(asg Assignment) Trial {
	tr := Trial{
		Workload: asg.Workload,
		Hyper:    asg.Hyper,
		Sys:      asg.Sys,
		Seed:     asg.Seed,
		Trainer:  asg.Trainer,
	}
	if asg.StreamEpochs {
		tr.Observer = trainer.ObserverFunc(func(uint64, workload.Workload, params.Hyper, trainer.EpochStats) *params.SysConfig { return nil })
	}
	return tr
}

// sampleResult builds a result shaped like a trainer's — an init epoch,
// then train epochs with occasional mid-trial system switches. Seeded so
// fuzzing can vary it.
func sampleResult(seed uint64, nEpochs int, baseSys params.SysConfig) *trainer.Result {
	rng := xrand.New(seed)
	res := &trainer.Result{
		Workload: workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST},
		Hyper:    params.DefaultHyper(),
	}
	sys := baseSys
	clock := 0.0
	for i := 0; i < nEpochs; i++ {
		if i > 0 && rng.Float64() < 0.4 { // mid-trial system switch
			sys = params.SysConfig{Cores: 1 + int(rng.Uint64()%64), MemoryGB: 1 + int(rng.Uint64()%256)}
		}
		e := trainer.EpochStats{
			Epoch:     i,
			Init:      i == 0,
			Sys:       sys,
			Duration:  rng.Float64() * 100,
			TrainLoss: rng.Float64(),
			Accuracy:  rng.Float64(),
			EnergyJ:   rng.Float64() * 1e4,
		}
		clock += e.Duration
		e.EndTime = clock
		res.Epochs = append(res.Epochs, e)
		res.EnergyJ += e.EnergyJ
		if !e.Init {
			res.Accuracy = e.Accuracy
		}
	}
	res.Duration = clock
	res.FinalSys = sys
	return res
}

// encodeFrameBytes assembles a complete frame (header + payload) for a
// payload builder — test-side capture of "real frames" for seeds.
func encodeFrameBytes(t testing.TB, ft byte, build func(w *wirebuf)) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	wb := getWirebuf()
	build(wb)
	if err := fw.send(ft, wb.b); err != nil {
		t.Fatal(err)
	}
	putWirebuf(wb)
	return buf.Bytes()
}

// TestFrameRoundTrip pins the framing discipline: frames written by
// frameWriter come back intact through readFrame, in order.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 5000)}
	for i, p := range payloads {
		if err := fw.send(byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		ft, got, err := readFrame(&buf, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != byte(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d len %d, want type %d len %d", i, ft, len(got), i+1, len(want))
		}
	}
}

// TestFrameCorruptionDetected flips every byte of a frame in turn: each
// mutation must surface as an error (or, for the type byte, an intact
// read of a different type — the dispatcher's problem), never as
// silently altered payload.
func TestFrameCorruptionDetected(t *testing.T) {
	frame := encodeFrameBytes(t, frameHello, func(w *wirebuf) { encodeHello(w, "worker-a", 4) })
	var scratch []byte
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x01
		ft, p, err := readFrame(bytes.NewReader(mut), &scratch)
		if i == 0 {
			// The type byte is outside the CRC; a flip yields a different
			// frame type with an intact payload.
			if err != nil || ft == frameHello {
				t.Fatalf("type-byte flip: ft %d err %v", ft, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("flip at byte %d decoded silently (payload %d bytes)", i, len(p))
		}
	}
	// Truncation at every length must error, never hang or panic.
	for n := 0; n < len(frame); n++ {
		if _, _, err := readFrame(bytes.NewReader(frame[:n]), &scratch); err == nil {
			t.Fatalf("truncation to %d bytes decoded silently", n)
		}
	}
}

// TestAssignmentRoundTrip pins the grant codec field by field.
func TestAssignmentRoundTrip(t *testing.T) {
	want := []Assignment{sampleAssignment(), {LeaseID: "ls-000001", Attempt: 1, Trainer: TrainerConfig{TrainSize: 1, TestSize: 1}}}
	want[1].StreamEpochs = false
	wb := getWirebuf()
	defer putWirebuf(wb)
	wb.uvarint(uint64(len(want)))
	for _, asg := range want {
		tr := trialOf(asg)
		appendAssignment(wb, asg.LeaseID, asg.Attempt, &tr)
	}
	got, err := decodeGrant(wb.b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grant round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestEpochFrameRoundTrip pins the observation codec, profile included.
func TestEpochFrameRoundTrip(t *testing.T) {
	want := trainer.EpochStats{
		Epoch: 3, Sys: params.SysConfig{Cores: 16, MemoryGB: 32},
		Duration: 12.5, EndTime: 40.25, TrainLoss: 0.31, Accuracy: 0.88, EnergyJ: 512.5,
		Profile: perf.Profile{1, 2.5, math.Pi},
	}
	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeEpochFrame(wb, "ls-000007", 4, &want)
	leaseID, attempt, got, err := decodeEpochFrame(wb.b)
	if err != nil {
		t.Fatal(err)
	}
	if string(leaseID) != "ls-000007" || attempt != 4 {
		t.Fatalf("lease coords %q/%d", leaseID, attempt)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch round trip:\n got %+v\nwant %+v", got, want)
	}
}

// roundTripResult encodes res in a Complete frame and decodes it back,
// checking the frame's lease coordinates on the way.
func roundTripResult(t *testing.T, res *trainer.Result) *trainer.Result {
	t.Helper()
	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeComplete(wb, "ls-000009", 2, completeOK, "", res)
	leaseID, attempt, status, errMsg, got, err := decodeComplete(wb.b)
	if err != nil {
		t.Fatal(err)
	}
	if string(leaseID) != "ls-000009" || attempt != 2 || status != completeOK || errMsg != "" {
		t.Fatalf("header %q/%d/%d/%q", leaseID, attempt, status, errMsg)
	}
	return got
}

// TestResultRoundTrip is the codec half of the parity guarantee: a
// result, per-epoch sys chain included, decodes bit-identical.
func TestResultRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		want := sampleResult(seed, 1+int(seed%5), params.DefaultSysConfig())
		if got := roundTripResult(t, want); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: round trip diverged:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestResultTravelsAsComputed: the frame carries a result's clocks and
// totals as the trainer computed them and derives none of them from its
// epochs. This result follows no such derivation — its epochs' EndTimes
// start after a resumed prefix instead of summing their durations,
// Duration and EnergyJ are not the epochs' sums, and Accuracy is not the
// last train epoch's — and must come back field for field.
func TestResultTravelsAsComputed(t *testing.T) {
	sys := params.SysConfig{Cores: 8, MemoryGB: 16}
	final := params.SysConfig{Cores: 4, MemoryGB: 8}
	want := &trainer.Result{
		Workload: workload.Workload{Model: workload.LSTM, Dataset: workload.News20},
		Hyper:    params.Hyper{BatchSize: 64, LearningRate: 0.05, Dropout: 0.2, EmbeddingDim: 32, Epochs: 5},
		FinalSys: final,
		Accuracy: 0.75,
		Duration: 100.5,
		EnergyJ:  9000,
		Epochs: []trainer.EpochStats{
			{Epoch: 0, Init: true, Sys: sys, Duration: 5, EndTime: 65, TrainLoss: 2.3, Accuracy: 0.1, EnergyJ: 250},
			{Epoch: 3, Sys: sys, Duration: 10, EndTime: 75, TrainLoss: 0.9, Accuracy: 0.6, EnergyJ: 500},
			{Epoch: 4, Sys: final, Duration: 10, EndTime: 85.5, TrainLoss: 0.7, Accuracy: 0.62, EnergyJ: 400},
		},
	}
	if got := roundTripResult(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("result rewritten in transit:\n got %+v\nwant %+v", got, want)
	}
}

// TestResultRealTrial round-trips an actual trainer.Run result. The
// trial is observed, as a streamed PipeTune trial is: every epoch's
// profile travels in its Epoch frame, and the Complete frame of the
// 9-epoch result carries none — it is smaller than the profiles alone
// would have been.
func TestResultRealTrial(t *testing.T) {
	tr := smallTrainer()
	asg := realTrials(tr, 1)[0]
	asg.Hyper.Epochs = 9
	epochFrames := 0
	obs := trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		wb := getWirebuf()
		defer putWirebuf(wb)
		encodeEpochFrame(wb, "ls-000001", 1, &s)
		_, _, got, err := decodeEpochFrame(wb.b)
		if err != nil || len(got.Profile) != perf.NumEvents || !reflect.DeepEqual(got, s) {
			t.Errorf("epoch %d: frame lost the observation (err %v, %d events)", s.Epoch, err, len(got.Profile))
		}
		epochFrames++
		return nil
	})
	want, err := tr.Run(asg.Workload, asg.Hyper, asg.Sys, asg.Seed, obs)
	if err != nil {
		t.Fatal(err)
	}
	if epochFrames != asg.Hyper.Epochs {
		t.Fatalf("streamed %d epoch frames, want %d", epochFrames, asg.Hyper.Epochs)
	}
	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeComplete(wb, "ls-000001", 1, completeOK, "", want)
	if limit := asg.Hyper.Epochs * perf.NumEvents * 8; len(wb.b) >= limit {
		t.Fatalf("complete frame is %d B; the profiles it must not carry are %d B", len(wb.b), limit)
	}
	if got := roundTripResult(t, want); !reflect.DeepEqual(got, want) {
		t.Fatal("real trial result diverged through the codec")
	}
}

// fuzzSeedFrames captures one real frame of every type — the corpus
// FuzzFrameDecode starts from — plus a Hello whose capacity overflows
// int and a Stats frame whose trial sketch sums to +Inf, which random
// mutation would almost never get past the CRC.
func fuzzSeedFrames(t testing.TB) [][]byte {
	asg := sampleAssignment()
	res := sampleResult(3, 3, asg.Sys)
	st := trainer.EpochStats{Epoch: 1, Sys: asg.Sys, Duration: 2, EndTime: 3, Profile: perf.Profile{1, 2.5, math.Pi}}
	sw := params.SysConfig{Cores: 16, MemoryGB: 32}
	stats := newWorkerStats()
	stats.observeTrial(0.25, 3)
	stats.observeTrial(2, 1)
	return [][]byte{
		encodeFrameBytes(t, frameHello, func(w *wirebuf) { encodeHello(w, "worker-a", 4) }),
		encodeFrameBytes(t, frameHello, func(w *wirebuf) {
			w.str("")
			w.uvarint(1 << 63)
		}),
		encodeFrameBytes(t, frameWelcome, func(w *wirebuf) {
			encodeWelcome(w, "w-000001", 2)
		}),
		encodeFrameBytes(t, frameGrant, func(w *wirebuf) {
			w.uvarint(1)
			tr := trialOf(asg)
			appendAssignment(w, asg.LeaseID, asg.Attempt, &tr)
		}),
		encodeFrameBytes(t, frameEpoch, func(w *wirebuf) { encodeEpochFrame(w, asg.LeaseID, asg.Attempt, &st) }),
		encodeFrameBytes(t, frameDirective, func(w *wirebuf) {
			encodeDirective(w, []byte(asg.LeaseID), asg.Attempt, 2, EpochDirective{Sys: &sw})
		}),
		encodeFrameBytes(t, frameComplete, func(w *wirebuf) {
			encodeComplete(w, asg.LeaseID, asg.Attempt, completeOK, "", res)
		}),
		encodeFrameBytes(t, frameComplete, func(w *wirebuf) {
			encodeComplete(w, asg.LeaseID, asg.Attempt, completeError, "trial body panicked", nil)
		}),
		encodeFrameBytes(t, frameAck, func(w *wirebuf) { encodeAck(w, []byte(asg.LeaseID), asg.Attempt, ackCommitted) }),
		encodeFrameBytes(t, frameStats, func(w *wirebuf) { encodeStats(w, stats.series()) }),
		encodeFrameBytes(t, frameStats, func(w *wirebuf) {
			s := stats.series()
			s.TrialSeconds.Sum = math.Inf(1)
			encodeStats(w, s)
		}),
	}
}

// FuzzFrameDecode drives arbitrary bytes through the frame reader and
// every payload decoder. The invariant under fuzz: never panic, never
// hang, and never accept a frame that fails the length/CRC/structure
// discipline — a corrupt frame must surface as an error, because the
// stream reacts by evicting the worker (the requeue path), and silent
// acceptance would corrupt trial results instead. A Stats payload that
// decodes carries only finite, non-negative sketch sums and extremes:
// anything else would poison the daemon's registry.
func FuzzFrameDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		r := bytes.NewReader(data)
		ft, p, err := readFrame(r, &scratch)
		if err != nil {
			return // rejected at the framing layer: exactly the contract
		}
		// The frame passed length+CRC; every decoder must now either
		// decode it fully or reject it — no panics, no partial reads
		// accepted. Decoders are exercised regardless of the type byte:
		// a mismatched decoder must also fail safe.
		_, _, _ = decodeHello(p)
		_, _, _ = decodeWelcome(p)
		_, _ = decodeGrant(p)
		_, _, _, _ = decodeEpochFrame(p)
		_, _, _, _, _ = decodeDirective(p)
		_, _, _, _, _, _ = decodeComplete(p)
		_, _, _, _ = decodeAck(p)
		switch ft {
		case frameHello:
			if name, capacity, err := decodeHello(p); err == nil && capacity < 0 {
				t.Fatalf("hello decoded negative capacity %d (name %q)", capacity, name)
			}
		}
		if s, err := decodeStats(p); err == nil {
			for _, d := range []metrics.DistSnapshot{s.TrialSeconds, s.TrainEpochSeconds, s.EvalSeconds} {
				for _, v := range []float64{d.Sum, d.Min, d.Max} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("stats decoded a sketch with sum/min/max %v: %+v", v, d)
					}
				}
			}
		}
	})
}

// TestFuzzSeedsCoverEveryFrameType holds fuzzSeedFrames to the frame
// constants: a new frame type cannot ship without a seed, so it cannot
// ship unfuzzed.
func TestFuzzSeedsCoverEveryFrameType(t *testing.T) {
	seeded := map[byte]bool{}
	for _, frame := range fuzzSeedFrames(t) {
		seeded[frame[0]] = true
	}
	for ft := frameHello; ft <= frameAck; ft++ {
		if !seeded[ft] {
			t.Errorf("frame type %d has no fuzz seed", ft)
		}
	}
}

// FuzzResultRoundTrip requires the codec to reproduce generated results
// bit for bit — the fuzzing twin of TestResultRoundTrip, exploring epoch
// counts, sys-switch chains and starting configurations the hand-picked
// seeds miss. skew moves the totals off their epochs' sums, which the
// codec must carry as readily as a trainer-shaped result.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(8), uint8(4), 0.0)
	f.Add(uint64(42), uint8(5), uint8(1), uint8(1), 0.5)
	f.Add(uint64(7), uint8(12), uint8(64), uint8(255), -3e9)
	f.Fuzz(func(t *testing.T, seed uint64, nEpochs, cores, mem uint8, skew float64) {
		if math.IsNaN(skew) {
			t.Skip("NaN never equals itself under reflect.DeepEqual")
		}
		base := params.SysConfig{Cores: 1 + int(cores%64), MemoryGB: 1 + int(mem)}
		want := sampleResult(seed, int(nEpochs%16), base)
		want.Duration += skew
		want.EnergyJ -= skew
		want.Accuracy -= skew
		if got := roundTripResult(t, want); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged for seed %d epochs %d skew %v", seed, nEpochs, skew)
		}
	})
}
