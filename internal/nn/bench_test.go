package nn

import (
	"math"
	"testing"

	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func BenchmarkTrainEpochLeNet(b *testing.B) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, _, err := dataset.Generate(w, 1, dataset.Config{TrainSize: 512, TestSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	net, err := Build(w.Model, train.Dim, train.NumClasses, params.DefaultHyper(), r.Split())
	if err != nil {
		b.Fatal(err)
	}
	shuffler := r.Split()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainEpoch(train, 32, 0.01, shuffler); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	train, test, err := dataset.Generate(w, 1, dataset.Config{TrainSize: 256, TestSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	net, err := Build(w.Model, train.Dim, train.NumClasses, params.DefaultHyper(), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Evaluate(test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernels times the Dense kernels in isolation at the zoo's
// dominant shapes: the LeNet first layer, the widest CNN embedding
// layer, the text models' first layer on real News20 rows (bag-of-words
// counts, ≈ 97 % zeros: compaction, not arithmetic, is what it costs),
// a 256-row backward — the tallest slice a layer sees, at batch 256 and
// in each slice of batch 1024 — where g no longer fits L1 and gw depends
// on the k-tiling; then LSTM's 300→151 layer over tanh output (every
// term non-zero), the 48→20 and 24→10 heads over ReLU output (all column
// tails), and a 256-row layer over ReLU + dropout output, whose gw
// compacts a strided, 62 %-zero column.
// Last, the elementwise kernels: tanh forward and backward, softmax and
// dropout backward.
func BenchmarkKernels(b *testing.B) {
	news, _, err := dataset.Generate(workload.Workload{Model: workload.CNN, Dataset: workload.News20}, 1,
		dataset.Config{TrainSize: 256, TestSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	relu := func(v float64, _ *xrand.Source) float64 { return max(v, 0) }
	shapes := []struct {
		name          string
		rows, in, out int
		set           *dataset.Set // input rows; nil draws them from [-1, 1)
		act           func(v float64, r *xrand.Source) float64
	}{
		{"dense-fwd-32x64x48", 32, 64, 48, nil, nil},
		{"dense-fwd-32x128x300", 32, 128, 300, nil, nil},
		{"dense-fwd-256x128x100-news20", 256, news.Dim, 100, news, nil},
		{"dense-fwd-256x64x48", 256, 64, 48, nil, nil},
		{"dense-fwd-32x300x151-tanh", 32, 300, 151, nil, func(v float64, _ *xrand.Source) float64 { return math.Tanh(v) }},
		{"dense-fwd-32x48x20-relu", 32, 48, 20, nil, relu},
		{"dense-fwd-32x24x10-relu", 32, 24, 10, nil, relu},
		{"dense-fwd-256x48x24-relu-dropout", 256, 48, 24, nil, func(v float64, r *xrand.Source) float64 {
			if v <= 0 || r.Float64() < 0.25 {
				return 0
			}
			return v / 0.75
		}},
	}
	for _, sh := range shapes {
		input := func(r *xrand.Source) *Batch {
			x := &Batch{Data: make([]float64, sh.rows*sh.in), Rows: sh.rows, Cols: sh.in}
			for i := range x.Data {
				x.Data[i] = r.Range(-1, 1)
				if sh.act != nil {
					x.Data[i] = sh.act(x.Data[i], r)
				}
			}
			if sh.set != nil {
				for s := 0; s < sh.rows; s++ {
					sh.set.Row(s, x.Row(s))
				}
			}
			return x
		}
		b.Run(sh.name, func(b *testing.B) {
			r := xrand.New(1)
			d := NewDense(sh.in, sh.out, r)
			x := input(r)
			d.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
			}
		})
		b.Run(sh.name[:6]+"bwd"+sh.name[9:], func(b *testing.B) {
			r := xrand.New(1)
			d := NewDense(sh.in, sh.out, r)
			x := input(r)
			g := &Batch{Data: make([]float64, sh.rows*sh.out), Rows: sh.rows, Cols: sh.out}
			for i := range g.Data {
				g.Data[i] = r.Range(-1, 1)
			}
			d.Forward(x, true)
			d.Backward(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Backward(g)
			}
		})
	}

	// The elementwise passes at the catalog's widest shapes: tanh over
	// LSTM's 300-wide embedding, the softmax cross-entropy over News20's
	// 20 classes, and dropout's backward behind a 300-wide embedding.
	// The tanh inputs are as small as the LSTM's activations: nearly
	// every group of four has no lane at 0.625 or beyond, where tanh
	// needs exp.
	r := xrand.New(1)
	batch := func(rows, cols int, lo, hi float64) *Batch {
		x := &Batch{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
		for i := range x.Data {
			x.Data[i] = r.Range(lo, hi)
		}
		return x
	}
	x, g := batch(32, 300, -0.64, 0.64), batch(32, 300, -1, 1)
	th := &Tanh{}
	th.Forward(x, true)
	b.Run("tanh-fwd-32x300", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th.Forward(x, true)
		}
	})
	b.Run("tanh-bwd-32x300", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th.Backward(g)
		}
	})
	logits, labels := batch(32, 20, -4, 4), randomLabels(r, 32, 20)
	net := NewNetwork()
	net.softmaxXE(logits, labels, 1.0/32, 0)
	b.Run("softmax-32x20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net.softmaxXE(logits, labels, 1.0/32, 0)
		}
	})
	drop := NewDropout(0.5, r.Split())
	drop.Forward(x, true)
	drop.Backward(g)
	b.Run("dropout-bwd-32x300", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			drop.Backward(g)
		}
	})
}

// BenchmarkDropoutForward times the training-mode mask draw at the
// layer's two catalog positions: after CNN/LSTM's widest embedding and
// after LeNet's 48-wide layer in the tallest slice a layer sees.
func BenchmarkDropoutForward(b *testing.B) {
	for _, sh := range []struct {
		name       string
		rows, cols int
		rate       float64
	}{
		{"32x300-rate0.5", 32, 300, 0.5},
		{"256x48-rate0.25", 256, 48, 0.25},
	} {
		b.Run(sh.name, func(b *testing.B) {
			r := xrand.New(1)
			x := &Batch{Data: make([]float64, sh.rows*sh.cols), Rows: sh.rows, Cols: sh.cols}
			for i := range x.Data {
				x.Data[i] = r.Range(-1, 1)
			}
			d := NewDropout(sh.rate, r.Split())
			d.prealloc(sh.rows, sh.cols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Forward(x, true)
			}
		})
	}
}

// TestTrainHotPathAllocs pins the tentpole claim: once arenas are sized
// (one warm-up pass), trainBatch allocates nothing — also for a batch of
// 1 024, which runs through evalChunk-row slices.
func TestTrainHotPathAllocs(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, _, err := dataset.Generate(w, 1, dataset.Config{TrainSize: 1024, TestSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{32, 1024} {
		h := params.DefaultHyper()
		h.BatchSize = rows
		net, err := Build(w.Model, train.Dim, train.NumClasses, h, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		x := &Batch{Data: make([]float64, rows*train.Dim), Rows: rows, Cols: train.Dim}
		labels := make([]int, rows)
		for i := range labels {
			train.Row(i, x.Row(i))
			labels[i] = train.Label(i)
		}
		for i := 0; i < 3; i++ {
			if _, err := net.trainBatch(x, labels, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := net.trainBatch(x, labels, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("batch %d: trainBatch steady state allocates %.1f/op, want 0", rows, allocs)
		}
	}
}

// TestEpochHotPathAllocs extends the claim to the full epoch loop —
// shuffle, gather, batches, and at batch 1 024 the per-slice gathers —
// which reuses the network's own arenas.
func TestEpochHotPathAllocs(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	for _, sz := range []struct{ set, batch int }{{128, 32}, {2048, 1024}} {
		set, _, err := dataset.Generate(w, 1, dataset.Config{TrainSize: sz.set, TestSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		h := params.DefaultHyper()
		h.BatchSize = sz.batch
		net, err := Build(w.Model, set.Dim, set.NumClasses, h, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sh := xrand.New(2)
		for i := 0; i < 2; i++ {
			if _, err := net.TrainEpoch(set, sz.batch, 0.01, sh); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := net.TrainEpoch(set, sz.batch, 0.01, sh); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("batch %d: TrainEpoch steady state allocates %.1f/op, want 0", sz.batch, allocs)
		}
	}
}
