package nn

import (
	"math"
	"testing"

	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func TestDenseForwardShape(t *testing.T) {
	r := xrand.New(1)
	d := NewDense(3, 2, r)
	out := d.Forward(fromRows([][]float64{{1, 2, 3}, {4, 5, 6}}), false)
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("output shape %dx%d, want 2x2", out.Rows, out.Cols)
	}
}

// fromRows builds a Batch by copying the given rows (all of equal length).
func fromRows(rows [][]float64) *Batch {
	b := &Batch{Rows: len(rows)}
	if len(rows) > 0 {
		b.Cols = len(rows[0])
	}
	b.Data = make([]float64, b.Rows*b.Cols)
	for s, row := range rows {
		copy(b.Row(s), row)
	}
	return b
}

// paramCount is the network's number of trainable parameters.
func paramCount(n *Network) int {
	total := 0
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			total += len(d.w) + len(d.b)
		}
	}
	return total
}

// numericalGrad perturbs one weight and measures the loss change.
func numericalGrad(net *Network, x *Batch, labels []int, w *float64) float64 {
	const eps = 1e-5
	orig := *w
	*w = orig + eps
	lossPlus := evalLoss(net, x, labels)
	*w = orig - eps
	lossMinus := evalLoss(net, x, labels)
	*w = orig
	return (lossPlus - lossMinus) / (2 * eps)
}

func evalLoss(net *Network, x *Batch, labels []int) float64 {
	logits := net.Forward(x, false)
	return net.softmaxXE(logits, labels, 1/float64(len(labels)), 0) / float64(len(labels))
}

// TestGradientCheck verifies the blocked kernels' analytic gradients
// against central differences.
func TestGradientCheck(t *testing.T) {
	r := xrand.New(7)
	d1 := NewDense(4, 5, r)
	d2 := NewDense(5, 3, r)
	net := NewNetwork(d1, &Tanh{}, d2)

	x := fromRows([][]float64{{0.5, -0.2, 0.8, 0.1}, {-0.4, 0.9, -0.1, 0.3}})
	labels := []int{0, 2}

	// Compute analytic gradients without updating.
	logits := net.Forward(x, true)
	net.softmaxXE(logits, labels, 1/float64(len(labels)), 0)
	grad := &net.smx
	for i := len(net.layers) - 1; i >= 0; i-- {
		grad = net.layers[i].Backward(grad)
	}

	check := func(name string, ws, gs []float64) {
		for _, idx := range []int{0, len(ws) / 2, len(ws) - 1} {
			num := numericalGrad(net, x, labels, &ws[idx])
			ana := gs[idx]
			diff := math.Abs(num - ana)
			scale := math.Max(1e-6, math.Abs(num)+math.Abs(ana))
			if diff/scale > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, ana, num)
			}
		}
	}
	check("d1.w", d1.w, d1.gw)
	check("d1.b", d1.b, d1.gb)
	check("d2.w", d2.w, d2.gw)
	check("d2.b", d2.b, d2.gb)
}

func TestReLUForwardBackward(t *testing.T) {
	a := &ReLU{}
	out := a.Forward(fromRows([][]float64{{-1, 0, 2}}), true)
	if out.Row(0)[0] != 0 || out.Row(0)[1] != 0 || out.Row(0)[2] != 2 {
		t.Fatalf("ReLU forward = %v", out.Row(0))
	}
	back := a.Backward(fromRows([][]float64{{5, 5, 5}}))
	if back.Row(0)[0] != 0 || back.Row(0)[1] != 0 || back.Row(0)[2] != 5 {
		t.Fatalf("ReLU backward = %v", back.Row(0))
	}
}

func TestTanhBounds(t *testing.T) {
	a := &Tanh{}
	out := a.Forward(fromRows([][]float64{{-100, 0, 100}}), true)
	o := out.Row(0)
	if o[0] > -0.99 || math.Abs(o[1]) > 1e-12 || o[2] < 0.99 {
		t.Fatalf("Tanh forward = %v", o)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	d := NewDropout(0.5, xrand.New(1))
	in := fromRows([][]float64{{1, 2, 3, 4}})
	out := d.Forward(in, false)
	if out != in {
		t.Fatal("inactive dropout should pass the batch through unchanged")
	}
}

func TestDropoutTrainZeroesAndScales(t *testing.T) {
	d := NewDropout(0.5, xrand.New(2))
	in := make([]float64, 1000)
	for i := range in {
		in[i] = 1
	}
	out := d.Forward(fromRows([][]float64{in}), true)
	zeros, scaled := 0, 0
	for _, v := range out.Row(0) {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-2) < 1e-12: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d/1000 with rate 0.5", zeros)
	}
	if zeros+scaled != 1000 {
		t.Fatal("dropout outputs not partitioned into zero/scaled")
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	d := NewDropout(0.3, xrand.New(3))
	in := make([]float64, 20000)
	for i := range in {
		in[i] = 1
	}
	out := d.Forward(fromRows([][]float64{in}), true)
	sum := 0.0
	for _, v := range out.Row(0) {
		sum += v
	}
	mean := sum / float64(len(in))
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("inverted dropout mean = %v, want ~1", mean)
	}
}

func TestSoftmaxXEKnownValues(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	n := NewNetwork()
	loss := n.softmaxXE(fromRows([][]float64{{0, 0, 0, 0}}), []int{1}, 1, 0)
	grad := &n.smx
	if math.Abs(loss-math.Log(4)) > 1e-9 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient sums to zero per sample.
	sum := 0.0
	for _, g := range grad.Row(0) {
		sum += g
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("grad sum = %v, want 0", sum)
	}
	if grad.Row(0)[1] >= 0 {
		t.Fatal("gradient at true label should be negative")
	}
}

func TestTrainBatchReducesLossOnFixedBatch(t *testing.T) {
	r := xrand.New(11)
	net := NewNetwork(NewDense(4, 8, r), &ReLU{}, NewDense(8, 2, r))
	x := fromRows([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	labels := []int{0, 0, 1, 1}
	first, err := net.trainBatch(x, labels, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 100; i++ {
		last, err = net.trainBatch(x, labels, 0.5)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
	if last > 0.1 {
		t.Fatalf("trivially separable batch not memorised: loss %v", last)
	}
}

func TestTrainBatchRejectsBadInput(t *testing.T) {
	net := NewNetwork(NewDense(2, 2, xrand.New(1)))
	if _, err := net.trainBatch(nil, nil, 0.1); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := net.trainBatch(fromRows([][]float64{{1, 2}}), []int{0, 1}, 0.1); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}

func trainOn(t *testing.T, w workload.Workload, h params.Hyper, seed uint64, epochs int) float64 {
	t.Helper()
	train, test, err := dataset.Generate(w, seed, dataset.Config{TrainSize: 600, TestSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(seed)
	net, err := Build(w.Model, train.Dim, train.NumClasses, h, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	shuffler := r.Split()
	for e := 0; e < epochs; e++ {
		if _, err := net.TrainEpoch(train, h.BatchSize, h.LearningRate, shuffler); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := net.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestLearnsBeyondChance(t *testing.T) {
	for _, w := range workload.Catalog() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			h := params.DefaultHyper()
			h.LearningRate = 0.05
			acc := trainOn(t, w, h, 33, 8)
			train, _, _ := dataset.Generate(w, 33, dataset.Config{TrainSize: 600, TestSize: 200})
			chance := 1.0 / float64(train.NumClasses)
			if acc < chance*2 {
				t.Fatalf("%s accuracy %.3f not above 2x chance (%.3f)", w.Name(), acc, chance)
			}
		})
	}
}

func TestLargerBatchLowersAccuracyAtFixedEpochs(t *testing.T) {
	// The Figure 3a mechanism: fewer SGD updates per epoch with batch 1024
	// reduces accuracy within a fixed epoch budget.
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	small := params.DefaultHyper()
	small.BatchSize, small.LearningRate = 32, 0.05
	large := small
	large.BatchSize = 1024
	accSmall := trainOn(t, w, small, 21, 4)
	accLarge := trainOn(t, w, large, 21, 4)
	if accSmall <= accLarge {
		t.Fatalf("batch 32 acc %.3f should exceed batch 1024 acc %.3f", accSmall, accLarge)
	}
}

func TestMoreEpochsHelp(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	h := params.DefaultHyper()
	h.LearningRate = 0.05
	acc2 := trainOn(t, w, h, 13, 1)
	acc10 := trainOn(t, w, h, 13, 10)
	if acc10 <= acc2 {
		t.Fatalf("10-epoch acc %.3f should exceed 1-epoch acc %.3f", acc10, acc2)
	}
}

func TestBuildAllModels(t *testing.T) {
	h := params.DefaultHyper()
	for _, m := range []workload.Model{
		workload.LeNet5, workload.CNN, workload.LSTM,
		workload.Jacobi, workload.SPKMeans, workload.BFS,
	} {
		net, err := Build(m, 32, 4, h, xrand.New(1))
		if err != nil {
			t.Fatalf("Build(%v): %v", m, err)
		}
		if paramCount(net) <= 0 {
			t.Fatalf("Build(%v) has no parameters", m)
		}
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	h := params.DefaultHyper()
	if _, err := Build(workload.LeNet5, 0, 4, h, xrand.New(1)); err == nil {
		t.Fatal("zero input dim accepted")
	}
	if _, err := Build(workload.LeNet5, 4, 1, h, xrand.New(1)); err == nil {
		t.Fatal("single class accepted")
	}
	bad := h
	bad.Epochs = 0
	if _, err := Build(workload.LeNet5, 4, 4, bad, xrand.New(1)); err == nil {
		t.Fatal("invalid hyperparameters accepted")
	}
	if _, err := Build(workload.Model(99), 4, 4, h, xrand.New(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestEmbeddingDimControlsCapacity(t *testing.T) {
	h := params.DefaultHyper()
	h.EmbeddingDim = 50
	small, err := Build(workload.CNN, 128, 20, h, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	h.EmbeddingDim = 300
	big, err := Build(workload.CNN, 128, 20, h, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if paramCount(big) <= paramCount(small) {
		t.Fatalf("embedding 300 params %d should exceed embedding 50 params %d",
			paramCount(big), paramCount(small))
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	h := params.DefaultHyper()
	a := trainOn(t, w, h, 5, 3)
	b := trainOn(t, w, h, 5, 3)
	if a != b {
		t.Fatalf("same seed produced different accuracies: %v vs %v", a, b)
	}
}

func TestEvaluateRejectsEmpty(t *testing.T) {
	net := NewNetwork(NewDense(2, 2, xrand.New(1)))
	if _, err := net.Evaluate(&dataset.Set{}); err == nil {
		t.Fatal("empty evaluation set accepted")
	}
}

func TestTrainEpochRejectsBadBatch(t *testing.T) {
	train, _, _ := dataset.Generate(workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}, 1,
		dataset.Config{TrainSize: 64, TestSize: 16})
	net := NewNetwork(NewDense(train.Dim, 10, xrand.New(1)))
	if _, err := net.TrainEpoch(train, 0, 0.1, xrand.New(2)); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := net.TrainEpoch(&dataset.Set{}, 32, 0.1, xrand.New(2)); err == nil {
		t.Fatal("empty set accepted")
	}
}
