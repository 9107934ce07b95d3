package nn

// The pre-refactor naive layer implementations, kept verbatim (modulo
// ref* renames and the slice-of-slices batch type they used) as the
// executable specification of the blocked kernels. Every kernel result —
// forward logits, training losses, evolved weights, dropout RNG streams —
// must match these reference implementations bit for bit: the trial
// prefix cache and remote workers assume a trial's floats are a pure
// function of its inputs. The parity tests
// below exercise odd shapes (dims not a multiple of the unroll/block
// widths, batch of 1).

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"pipetune/internal/dataset"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

type refBatch = [][]float64

type refLayer interface {
	Forward(x refBatch, train bool) refBatch
	Backward(grad refBatch) refBatch
	Update(lr float64)
}

type refDense struct {
	In, Out int
	w       []float64
	b       []float64
	x       refBatch
	gw      []float64
	gb      []float64
}

func newRefDense(in, out int, r *xrand.Source) *refDense {
	d := &refDense{
		In: in, Out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.w {
		d.w[i] = r.Range(-limit, limit)
	}
	return d
}

func (d *refDense) Forward(x refBatch, _ bool) refBatch {
	d.x = x
	out := make(refBatch, len(x))
	for s, row := range x {
		o := make([]float64, d.Out)
		copy(o, d.b)
		for i, xi := range row {
			if xi == 0 {
				continue
			}
			wRow := d.w[i*d.Out : (i+1)*d.Out]
			for j, wij := range wRow {
				o[j] += xi * wij
			}
		}
		out[s] = o
	}
	return out
}

func (d *refDense) Backward(grad refBatch) refBatch {
	for i := range d.gw {
		d.gw[i] = 0
	}
	for j := range d.gb {
		d.gb[j] = 0
	}
	dx := make(refBatch, len(grad))
	for s, g := range grad {
		row := d.x[s]
		dxRow := make([]float64, d.In)
		for i, xi := range row {
			wRow := d.w[i*d.Out : (i+1)*d.Out]
			gwRow := d.gw[i*d.Out : (i+1)*d.Out]
			acc := 0.0
			for j, gj := range g {
				gwRow[j] += xi * gj
				acc += wRow[j] * gj
			}
			dxRow[i] = acc
		}
		for j, gj := range g {
			d.gb[j] += gj
		}
		dx[s] = dxRow
	}
	return dx
}

func (d *refDense) Update(lr float64) {
	for i, g := range d.gw {
		d.w[i] -= lr * g
	}
	for j, g := range d.gb {
		d.b[j] -= lr * g
	}
}

type refReLU struct {
	mask []bool
	cols int
}

func (a *refReLU) Forward(x refBatch, _ bool) refBatch {
	if len(x) > 0 {
		a.cols = len(x[0])
	}
	if need := len(x) * a.cols; cap(a.mask) < need {
		a.mask = make([]bool, need)
	} else {
		a.mask = a.mask[:need]
	}
	out := make(refBatch, len(x))
	for s, row := range x {
		o := make([]float64, len(row))
		for i, v := range row {
			if v > 0 {
				o[i] = v
				a.mask[s*a.cols+i] = true
			} else {
				a.mask[s*a.cols+i] = false
			}
		}
		out[s] = o
	}
	return out
}

func (a *refReLU) Backward(grad refBatch) refBatch {
	out := make(refBatch, len(grad))
	for s, row := range grad {
		o := make([]float64, len(row))
		for i, v := range row {
			if a.mask[s*a.cols+i] {
				o[i] = v
			}
		}
		out[s] = o
	}
	return out
}

func (a *refReLU) Update(float64) {}

type refTanh struct {
	y refBatch
}

func (a *refTanh) Forward(x refBatch, _ bool) refBatch {
	out := make(refBatch, len(x))
	for s, row := range x {
		o := make([]float64, len(row))
		for i, v := range row {
			o[i] = math.Tanh(v)
		}
		out[s] = o
	}
	a.y = out
	return out
}

func (a *refTanh) Backward(grad refBatch) refBatch {
	out := make(refBatch, len(grad))
	for s, row := range grad {
		o := make([]float64, len(row))
		for i, v := range row {
			y := a.y[s][i]
			o[i] = v * (1 - y*y)
		}
		out[s] = o
	}
	return out
}

func (a *refTanh) Update(float64) {}

type refDropout struct {
	Rate float64
	r    *xrand.Source
	mask refBatch
}

func newRefDropout(rate float64, r *xrand.Source) *refDropout {
	return &refDropout{Rate: rate, r: r}
}

func (d *refDropout) Forward(x refBatch, train bool) refBatch {
	if !train || d.Rate <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	d.mask = make(refBatch, len(x))
	out := make(refBatch, len(x))
	for s, row := range x {
		m := make([]float64, len(row))
		o := make([]float64, len(row))
		for i, v := range row {
			if d.r.Float64() < keep {
				m[i] = 1 / keep
				o[i] = v / keep
			}
		}
		d.mask[s] = m
		out[s] = o
	}
	return out
}

func (d *refDropout) Backward(grad refBatch) refBatch {
	if d.mask == nil {
		return grad
	}
	out := make(refBatch, len(grad))
	for s, row := range grad {
		o := make([]float64, len(row))
		for i, v := range row {
			o[i] = v * d.mask[s][i]
		}
		out[s] = o
	}
	return out
}

func (d *refDropout) Update(float64) {}

type refNetwork struct {
	layers []refLayer
}

func (n *refNetwork) Forward(x refBatch, train bool) refBatch {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

func refSoftmaxXE(logits refBatch, labels []int) (loss float64, grad refBatch) {
	grad = make(refBatch, len(logits))
	for s, row := range logits {
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		probs := make([]float64, len(row))
		for i, v := range row {
			probs[i] = math.Exp(v - maxV)
			sum += probs[i]
		}
		for i := range probs {
			probs[i] /= sum
		}
		p := probs[labels[s]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)
		g := probs
		g[labels[s]] -= 1
		inv := 1 / float64(len(logits))
		for i := range g {
			g[i] *= inv
		}
		grad[s] = g
	}
	loss /= float64(len(logits))
	return loss, grad
}

func (n *refNetwork) TrainBatch(x refBatch, labels []int, lr float64) (float64, error) {
	logits := n.Forward(x, true)
	loss, grad := refSoftmaxXE(logits, labels)
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	for _, l := range n.layers {
		l.Update(lr)
	}
	return loss, nil
}

// denseRow returns sample i's features as a fresh slice.
func denseRow(set *dataset.Set, i int) []float64 {
	f := make([]float64, set.Dim)
	set.Row(i, f)
	return f
}

func (n *refNetwork) TrainEpoch(set *dataset.Set, batchSize int, lr float64, r *xrand.Source) (float64, error) {
	perm := r.Perm(set.Len())
	total, batches := 0.0, 0
	for start := 0; start < len(perm); start += batchSize {
		idx := perm[start:min(start+batchSize, len(perm))]
		x := make(refBatch, len(idx))
		labels := make([]int, len(idx))
		for i, sIdx := range idx {
			x[i] = denseRow(set, sIdx)
			labels[i] = set.Label(sIdx)
		}
		loss, err := n.TrainBatch(x, labels, lr)
		if err != nil {
			return 0, err
		}
		total += loss
		batches++
	}
	return total / float64(batches), nil
}

func (n *refNetwork) Evaluate(set *dataset.Set) (accuracy float64) {
	const chunk = 256
	correct := 0
	for start := 0; start < set.Len(); start += chunk {
		end := start + chunk
		if end > set.Len() {
			end = set.Len()
		}
		x := make(refBatch, end-start)
		labels := make([]int, end-start)
		for i := start; i < end; i++ {
			x[i-start] = denseRow(set, i)
			labels[i-start] = set.Label(i)
		}
		logits := n.Forward(x, false)
		for s, row := range logits {
			best := 0
			for i, v := range row {
				if v > row[best] {
					best = i
				}
			}
			if best == labels[s] {
				correct++
			}
		}
	}
	return float64(correct) / float64(set.Len())
}

// The parity tests' weight fingerprint: the state SGD evolves — Dense
// weights and biases, each Dropout layer's private RNG stream — and
// nothing else, as fixed-width little-endian bytes (float64s as IEEE-754
// bit patterns). Activation layers keep only per-batch scratch and
// contribute a bare tag.
const (
	stateVersion byte = 1
	stateDense   byte = 1
	stateDropout byte = 2
	stateNoParam byte = 3 // ReLU, Tanh
)

// CaptureState appends the network's mutable training state to buf and
// returns the extended slice.
func (n *Network) CaptureState(buf []byte) []byte {
	buf = append(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.layers)))
	for _, l := range n.layers {
		switch l := l.(type) {
		case *Dense:
			buf = append(buf, stateDense)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.w)))
			for _, v := range l.w {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.b)))
			for _, v := range l.b {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case *Dropout:
			buf = append(buf, stateDropout)
			s := l.r.State()
			for _, v := range s {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		default:
			buf = append(buf, stateNoParam)
		}
	}
	return buf
}

// CaptureState mirrors Network.CaptureState for the reference stack, byte
// for byte, so the kernels' trained state can be compared on the
// serialized form directly.
func (n *refNetwork) CaptureState(buf []byte) []byte {
	buf = append(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.layers)))
	for _, l := range n.layers {
		switch l := l.(type) {
		case *refDense:
			buf = append(buf, stateDense)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.w)))
			for _, v := range l.w {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l.b)))
			for _, v := range l.b {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case *refDropout:
			buf = append(buf, stateDropout)
			s := l.r.State()
			for _, v := range s {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
		default:
			buf = append(buf, stateNoParam)
		}
	}
	return buf
}

// --- parity harness -------------------------------------------------------

// layerSpec describes one layer of a paired reference/kernel stack.
type layerSpec struct {
	kind    string // "dense", "relu", "tanh", "dropout"
	in, out int
	rate    float64
}

// buildPair constructs the reference and kernel stacks from two
// identically seeded RNGs, so initial weights and dropout streams match
// bit for bit.
func buildPair(seed uint64, specs []layerSpec) (*refNetwork, *Network) {
	rRef, rNew := xrand.New(seed), xrand.New(seed)
	var refLayers []refLayer
	var newLayers []Layer
	for _, sp := range specs {
		switch sp.kind {
		case "dense":
			refLayers = append(refLayers, newRefDense(sp.in, sp.out, rRef))
			newLayers = append(newLayers, NewDense(sp.in, sp.out, rNew))
		case "relu":
			refLayers = append(refLayers, &refReLU{})
			newLayers = append(newLayers, &ReLU{})
		case "tanh":
			refLayers = append(refLayers, &refTanh{})
			newLayers = append(newLayers, &Tanh{})
		case "dropout":
			refLayers = append(refLayers, newRefDropout(sp.rate, rRef.Split()))
			newLayers = append(newLayers, NewDropout(sp.rate, rNew.Split()))
		default:
			panic("unknown layer kind " + sp.kind)
		}
	}
	return &refNetwork{layers: refLayers}, NewNetwork(newLayers...)
}

// randomBatch draws a dense batch with a sprinkle of exact zeros (the
// forward kernel's sparse skip path) from r.
func randomBatch(r *xrand.Source, rows, cols int) refBatch {
	x := make(refBatch, rows)
	for s := range x {
		row := make([]float64, cols)
		for i := range row {
			if r.Float64() < 0.2 {
				row[i] = 0
			} else {
				row[i] = r.Range(-2, 2)
			}
		}
		x[s] = row
	}
	return x
}

func randomLabels(r *xrand.Source, rows, classes int) []int {
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	return labels
}

// parityShapes exercises the kernels' edge tiles: dims that are not
// multiples of any column-block width, batch of one, a wide layer that
// overflows L1 the way the CNN embedding does (short k-chunks), and
// narrow layers whose In and batch cross the longest k-chunk.
var parityShapes = []struct {
	name  string
	rows  int
	specs []layerSpec
}{
	{"odd-dims", 5, []layerSpec{
		{kind: "dense", in: 7, out: 13}, {kind: "relu"},
		{kind: "dropout", rate: 0.3},
		{kind: "dense", in: 13, out: 3},
	}},
	{"batch-of-1", 1, []layerSpec{
		{kind: "dense", in: 9, out: 6}, {kind: "tanh"},
		{kind: "dense", in: 6, out: 4},
	}},
	{"block-multiples", 32, []layerSpec{
		{kind: "dense", in: 64, out: 48}, {kind: "relu"},
		{kind: "dropout", rate: 0.5},
		{kind: "dense", in: 48, out: 10},
	}},
	{"unroll-tail", 17, []layerSpec{
		{kind: "dense", in: 10, out: 5}, {kind: "relu"},
		{kind: "dense", in: 5, out: 2},
	}},
	{"wide", 33, []layerSpec{
		{kind: "dense", in: 128, out: 301}, {kind: "tanh"},
		{kind: "dense", in: 301, out: 20},
	}},
	// Narrow rows give the longest k-chunk (maxTerms): In and the batch
	// both cross it, in forward, gw and dx.
	{"chunk-crossing", 2*maxTerms + 3, []layerSpec{
		{kind: "dense", in: 3*maxTerms + 5, out: 24}, {kind: "relu"},
		{kind: "dropout", rate: 0.5},
		{kind: "dense", in: 24, out: maxTerms + 7}, {kind: "relu"},
		{kind: "dense", in: maxTerms + 7, out: 6},
	}},
}

func TestKernelForwardParity(t *testing.T) {
	for _, sh := range parityShapes {
		ref, net := buildPair(11, sh.specs)
		x := randomBatch(xrand.New(99), sh.rows, sh.specs[0].in)
		want := ref.Forward(x, false)
		got := net.Forward(fromRows(x), false)
		for s := range want {
			for j, w := range want[s] {
				if g := got.Row(s)[j]; g != w {
					t.Fatalf("%s logits[%d][%d] = %v, want %v", sh.name, s, j, g, w)
				}
			}
		}
	}
}

func TestKernelTrainingParity(t *testing.T) {
	for _, sh := range parityShapes {
		ref, net := buildPair(23, sh.specs)
		data := xrand.New(7)
		classes := sh.specs[len(sh.specs)-1].out
		for step := 0; step < 8; step++ {
			x := randomBatch(data, sh.rows, sh.specs[0].in)
			labels := randomLabels(data, sh.rows, classes)
			want, _ := ref.TrainBatch(x, labels, 0.05)
			got, err := net.trainBatch(fromRows(x), labels, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s step %d loss = %v, want %v (bitwise)", sh.name, step, got, want)
			}
		}
		wantState := ref.CaptureState(nil)
		gotState := net.CaptureState(nil)
		if !bytes.Equal(wantState, gotState) {
			t.Fatalf("%s: trained state diverged from reference", sh.name)
		}
	}
}

// TestKernelEpochParity pins the full train-epoch/evaluate pipeline —
// shuffling, gathering, chunked evaluation, argmax — against the
// reference, on an odd-sized set so the last batch and last eval chunk
// are short.
func TestKernelEpochParity(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, test, err := dataset.Generate(w, 3, dataset.Config{TrainSize: 403, TestSize: 301})
	if err != nil {
		t.Fatal(err)
	}
	specs := []layerSpec{
		{kind: "dense", in: train.Dim, out: 48}, {kind: "relu"},
		{kind: "dropout", rate: 0.25},
		{kind: "dense", in: 48, out: 24}, {kind: "relu"},
		{kind: "dense", in: 24, out: train.NumClasses},
	}
	ref, net := buildPair(5, specs)
	shRef, shNew := xrand.New(77), xrand.New(77)
	for e := 0; e < 3; e++ {
		want, err := ref.TrainEpoch(train, 32, 0.05, shRef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.TrainEpoch(train, 32, 0.05, shNew)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch %d loss = %v, want %v (bitwise)", e, got, want)
		}
	}
	wantAcc := ref.Evaluate(test)
	gotAcc, err := net.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if gotAcc != wantAcc {
		t.Fatalf("eval accuracy = %v, want %v", gotAcc, wantAcc)
	}
	if !bytes.Equal(ref.CaptureState(nil), net.CaptureState(nil)) {
		t.Fatal("epoch-trained state diverged from reference")
	}
}

// TestSlicedBatchMatchesReference pins the slicing of batches taller
// than evalChunk to the reference's one pass over the whole batch —
// losses, trained weights and dropout streams bit for bit: trainBatch at
// 1 024 rows (four whole slices) and 600 (a short last slice), and
// TrainEpoch at batch 1 024, which gathers each slice itself, over 2 500
// samples (a short last batch of 452: one whole slice and one short).
func TestSlicedBatchMatchesReference(t *testing.T) {
	specs := []layerSpec{
		{kind: "dense", in: 40, out: 33}, {kind: "relu"},
		{kind: "dropout", rate: 0.3},
		{kind: "dense", in: 33, out: 21}, {kind: "tanh"},
		{kind: "dense", in: 21, out: 5},
	}
	for _, rows := range []int{1024, 600} {
		ref, net := buildPair(29, specs)
		data := xrand.New(31)
		for step := 0; step < 3; step++ {
			x := randomBatch(data, rows, 40)
			labels := randomLabels(data, rows, 5)
			want, _ := ref.TrainBatch(x, labels, 0.05)
			got, err := net.trainBatch(fromRows(x), labels, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%d rows, step %d: loss = %v, want %v (bitwise)", rows, step, got, want)
			}
		}
		if !bytes.Equal(ref.CaptureState(nil), net.CaptureState(nil)) {
			t.Fatalf("%d rows: trained state diverged from reference", rows)
		}
	}

	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, _, err := dataset.Generate(w, 3, dataset.Config{TrainSize: 2500, TestSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, net := buildPair(5, []layerSpec{
		{kind: "dense", in: train.Dim, out: 48}, {kind: "relu"},
		{kind: "dropout", rate: 0.25},
		{kind: "dense", in: 48, out: 24}, {kind: "relu"},
		{kind: "dense", in: 24, out: train.NumClasses},
	})
	shRef, shNew := xrand.New(77), xrand.New(77)
	for e := 0; e < 2; e++ {
		want, err := ref.TrainEpoch(train, 1024, 0.05, shRef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.TrainEpoch(train, 1024, 0.05, shNew)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch 1024, epoch %d: loss = %v, want %v (bitwise)", e, got, want)
		}
	}
	if !bytes.Equal(ref.CaptureState(nil), net.CaptureState(nil)) {
		t.Fatal("batch 1024: epoch-trained state diverged from reference")
	}
}

// TestDenseMatchesReference compares one Dense layer — outputs, dx, gw
// and gb — with the reference bit for bit, standalone so that dx runs
// (a network skips it on its first layer), on shapes where In, Out and
// the batch cross a k-chunk and where the input rows are narrower than
// In (dx's padded tail must come out +0).
func TestDenseMatchesReference(t *testing.T) {
	for _, sh := range []struct{ rows, cols, in, out int }{
		{1, 3, 3, 2},
		{5, 7, 7, 13},
		{maxTerms + 6, 2*maxTerms + 3, 2*maxTerms + 3, 24}, // In and batch cross the longest chunk
		{9, 40, 40, 3*maxTerms + 11},                       // Out crosses it in dx
		{33, 100, 128, 301},                                // short chunks, x.Cols < In
		{2*maxTerms + 1, 50, 64, 48},                       // long chunks, x.Cols < In
	} {
		ref := newRefDense(sh.in, sh.out, xrand.New(17))
		d := NewDense(sh.in, sh.out, xrand.New(17))
		data := xrand.New(5)
		x := randomBatch(data, sh.rows, sh.cols)
		g := randomBatch(data, sh.rows, sh.out)
		wantOut := ref.Forward(x, true)
		gotOut := d.Forward(fromRows(x), true)
		wantDx := ref.Backward(g)
		gotDx := d.Backward(fromRows(g))
		same := func(what string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%+v %s: %d values, want %d", sh, what, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v %s[%d] = %v, want %v (bitwise)", sh, what, i, got[i], want[i])
				}
			}
		}
		for s := 0; s < sh.rows; s++ {
			same("out", gotOut.Row(s), wantOut[s])
			same("dx", gotDx.Row(s), wantDx[s])
		}
		same("gw", d.gw, ref.gw)
		same("gb", d.gb, ref.gb)
	}
}

// TestEmptyBatchThenNonEmpty pins the fix for the old stale-ReLU-columns
// edge case: an empty batch through Forward must not poison a later
// backward pass.
func TestEmptyBatchThenNonEmpty(t *testing.T) {
	_, net := buildPair(3, []layerSpec{
		{kind: "dense", in: 4, out: 6}, {kind: "relu"},
		{kind: "dense", in: 6, out: 3},
	})
	empty := &Batch{}
	net.Forward(empty, false) // must not panic or corrupt layer scratch
	x := fromRows(refBatch{{1, -2, 3, 0.5}, {0, 1, -1, 2}})
	if _, err := net.trainBatch(x, []int{0, 2}, 0.1); err != nil {
		t.Fatal(err)
	}
}

// TestAxpyMatchesGeneric pins the packed asm kernels (amd64) bit-for-bit
// against the portable loop across lengths that hit every vector-width
// tail, including exact zeros, ±0 behaviour and denormal-scale values.
func TestAxpyMatchesGeneric(t *testing.T) {
	r := xrand.New(99)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 301} {
		for _, a := range []float64{0, 1, -1, 0.3, -2.7e-300, 1.9e280} {
			w := make([]float64, n)
			got := make([]float64, n)
			want := make([]float64, n)
			for i := range w {
				w[i] = r.Range(-2, 2)
				if r.Float64() < 0.2 {
					w[i] = 0
				}
				v := r.Range(-2, 2)
				got[i], want[i] = v, v
			}
			axpy(got, w, a)
			axpyGeneric(want, w, a)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d a=%v: axpy[%d]=%x, generic=%x", n, a, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestAccumMatchesGeneric pins the accumulate path — accumRows over the
// assembly on amd64, and accumGeneric, its portable twin, everywhere —
// bit for bit against the straight term-by-term loop the kernel
// replaced, over every width that hits a column-block tail, every term
// count up to past a full chunk, packed and padded row strides,
// unaligned row offsets, and terms that are ±0, NaN, ±Inf or denormal.
// accumGeneric is handed every term; accumRows drops the ±0 ones, which
// the straight loop's finite w and non-zero accumulators make exact.
// Where both sides are NaN the payload is not compared: which operand's
// payload an SSE add or multiply of two NaNs keeps depends on operand
// order, which Go does not fix for the portable loops.
func TestAccumMatchesGeneric(t *testing.T) {
	r := xrand.New(7)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.7e-310, 1.9e280}
	for n := 0; n <= 301; n++ {
		for _, pad := range []int{0, 1, 5} {
			stride := n + pad
			for nt := 0; nt <= 70; nt++ {
				if n > 70 && nt > 9 && (n*31+nt)%23 != 0 {
					continue // wide × long: a sample of the grid is plenty
				}
				lead := (n + nt) % 4 // rows start at every alignment mod 32 bytes
				w := make([]float64, lead+nt*stride+n)
				for i := range w {
					w[i] = r.Range(-2, 2)
				}
				v := make([]float64, nt)
				ts := make([]term, nt)
				for k := range ts {
					v[k] = r.Range(-2, 2)
					if r.Float64() < 0.15 {
						v[k] = special[r.Intn(len(special))]
					}
					ts[k] = term{v: v[k], off: lead + k*stride}
				}
				want := make([]float64, n)
				for i := range want {
					want[i] = r.Range(-2, 2)
				}
				gotRows := append([]float64(nil), want...)
				gotGen := append([]float64(nil), want...)
				for _, tm := range ts {
					for j := range want {
						want[j] += float64(tm.v * w[tm.off+j])
					}
				}
				accumRows(gotRows, n, n, gotRows, n, v, 0, 1, nt, w[lead:], stride, 0, 1)
				accumGeneric(gotGen, w, ts)
				for name, got := range map[string][]float64{"accumRows": gotRows, "accumGeneric": gotGen} {
					for j, g := range got {
						if math.Float64bits(g) != math.Float64bits(want[j]) && !(math.IsNaN(g) && math.IsNaN(want[j])) {
							t.Fatalf("n=%d stride=%d terms=%d: %s[%d] = %x, straight loop %x", n, stride, nt, name, j, math.Float64bits(g), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// TestAccumChunkMatchesGeneric pins the fused kernel — one assembly call
// per k-chunk on amd64, compacting and accumulating every row — bit for
// bit against compact + accumGeneric per row, through accumRows: chunk
// lengths 0–64 (every residue of the compaction's groups of four),
// contiguous (ak 1, forward and dx) and strided (ak 7, gw's column
// reads) terms, 1–5 rows at padded row strides, widths that hit every
// column tail, rows that start from themselves, from one bias row or
// from +0 (a row without terms must still be set), and terms that are
// ±0, NaN, ±Inf or denormal among half zeros. Both-NaN elements skip
// the payload compare, as in TestAccumMatchesGeneric; a NaN term
// dropped or a zero kept still shows.
func TestAccumChunkMatchesGeneric(t *testing.T) {
	r := xrand.New(11)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.7e-310, 1.9e280}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17, 20, 24, 28, 31, 32, 33, 47, 48, 63, 64, 65, 100, 151, 300}
	for cnt := 0; cnt <= maxTerms; cnt++ {
		for _, ak := range []int{1, 7} {
			for wi, n := range widths {
				rows := 1 + (cnt+wi)%5
				pad := (cnt + wi + ak) % 3
				os, ws := n+pad, n+2*pad
				ar := cnt + pad // row r's terms: a[r*ar + k], packed or padded
				if ak > 1 {
					ar = 1 // gw's layout: row r is column r of a 7-wide x
				}
				a := make([]float64, max((rows-1)*ar+cnt*ak, 1))
				for i := range a {
					switch u := r.Float64(); {
					case u < 0.5:
						a[i] = 0
					case u < 0.65:
						a[i] = special[r.Intn(len(special))]
					default:
						a[i] = r.Range(-2, 2)
					}
				}
				w := make([]float64, cnt*ws+n)
				for i := range w {
					w[i] = r.Range(-2, 2)
				}
				want := make([]float64, (rows-1)*os+n)
				for i := range want {
					want[i] = r.Range(-2, 2)
				}
				got := append([]float64(nil), want...)
				bias := make([]float64, n)
				for i := range bias {
					bias[i] = r.Range(-2, 2)
				}
				if n > 1 {
					bias[1] = math.Copysign(0, -1)
				}
				mode := (cnt + wi) % 3
				var b []float64
				var ts [maxTerms]term
				for row := 0; row < rows; row++ {
					o := want[row*os : row*os+n]
					switch mode {
					case 1:
						copy(o, bias)
					case 2:
						clear(o)
					}
					nt := compact(ts[:], a[row*ar:], ak, cnt, ws)
					accumGeneric(o, w, ts[:nt])
				}
				switch mode {
				case 0:
					accumRows(got, os, n, got, os, a, ar, ak, cnt, w, ws, 0, rows)
				case 1:
					accumRows(got, os, n, bias, 0, a, ar, ak, cnt, w, ws, 0, rows)
				case 2:
					accumRows(got, os, n, b, 0, a, ar, ak, cnt, w, ws, 0, rows)
				}
				for j, g := range got {
					if math.Float64bits(g) != math.Float64bits(want[j]) && !(math.IsNaN(g) && math.IsNaN(want[j])) {
						t.Fatalf("cnt=%d ak=%d n=%d rows=%d pad=%d start=%d: o[%d] = %x, compact+accumGeneric %x", cnt, ak, n, rows, pad, mode, j, math.Float64bits(g), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestCompactKeepsNaNDropsZeros pins the term rule accumRows feeds the
// kernel with: ±0 is dropped, everything else — NaN, ±Inf, denormals —
// is kept, in order, with its row's offset, at unit and non-unit stride.
func TestCompactKeepsNaNDropsZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, 1.5, negZero, math.NaN(), 0, 0, math.Inf(-1), 5e-324, negZero, -3}
	for _, ak := range []int{1, 3} {
		a := make([]float64, len(vals)*ak)
		for i, v := range vals {
			a[i*ak] = v
		}
		var ts [maxTerms]term
		nt := compact(ts[:], a, ak, len(vals), 7)
		var want []term
		for i, v := range vals {
			if v != 0 {
				want = append(want, term{v, 7 * i})
			}
		}
		if nt != len(want) {
			t.Fatalf("stride %d: kept %d terms, want %d", ak, nt, len(want))
		}
		for i, w := range want {
			if math.Float64bits(ts[i].v) != math.Float64bits(w.v) || ts[i].off != w.off {
				t.Fatalf("stride %d: term %d = %+v, want %+v", ak, i, ts[i], w)
			}
		}
	}
}

// TestReluKernelsMatchGeneric pins the branch-free masked ReLU kernels
// bit-for-bit against the portable branches, including the NaN and ±0
// lanes where a wrong compare predicate or mask would diverge.
func TestReluKernelsMatchGeneric(t *testing.T) {
	r := xrand.New(41)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33, 100} {
		src := make([]float64, n)
		y := make([]float64, n)
		g := make([]float64, n)
		for i := range src {
			switch i % 5 {
			case 0:
				src[i], y[i] = 0, 0
			case 1:
				src[i], y[i] = math.Copysign(0, -1), math.Copysign(0, -1)
			case 2:
				src[i], y[i] = math.NaN(), math.NaN()
			default:
				src[i], y[i] = r.Range(-2, 2), r.Range(-2, 2)
			}
			g[i] = r.Range(-2, 2)
		}
		gotF, wantF := make([]float64, n), make([]float64, n)
		reluFwd(gotF, src)
		reluFwdGeneric(wantF, src)
		gotB, wantB := make([]float64, n), make([]float64, n)
		reluBwd(gotB, y, g)
		reluBwdGeneric(wantB, y, g)
		for i := 0; i < n; i++ {
			if math.Float64bits(gotF[i]) != math.Float64bits(wantF[i]) {
				t.Fatalf("n=%d fwd[%d]: asm %x, generic %x (src %v)", n, i, math.Float64bits(gotF[i]), math.Float64bits(wantF[i]), src[i])
			}
			if math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("n=%d bwd[%d]: asm %x, generic %x (y %v)", n, i, math.Float64bits(gotB[i]), math.Float64bits(wantB[i]), y[i])
			}
		}
	}
}

// TestDropoutMatchesReferenceStream pins the bulk-drawn, branch-free
// dropout mask against the reference's one draw and one branch per
// element: mask and output bit for bit, and the source's state after,
// over two consecutive batches, at rates from 0.1 to 1.0, at widths that
// end a batch one below, at and one above the draw block and a batch of
// 1 024 × 300, with inputs that are NaN, ±Inf, ±0 or denormal.
func TestDropoutMatchesReferenceStream(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	shapes := [][2]int{{1, 1}, {1, 7}, {1, dropBlock - 1}, {1, dropBlock}, {1, dropBlock + 1}, {3, 7}, {2, dropBlock + 1}, {1024, 300}}
	for _, rate := range []float64{0.1, 0.3, 0.75, 0.9, 1.0} {
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			in := xrand.New(uint64(rows*cols) + 1)
			got := NewDropout(rate, xrand.New(77))
			ref := newRefDropout(rate, xrand.New(77))
			for pass := 0; pass < 2; pass++ {
				x := make(refBatch, rows)
				for s := range x {
					x[s] = make([]float64, cols)
					for i := range x[s] {
						x[s][i] = in.Range(-3, 3)
						if in.Float64() < 0.2 {
							x[s][i] = special[in.Intn(len(special))]
						}
					}
				}
				out := got.Forward(fromRows(x), true)
				want := ref.Forward(x, true)
				for s := 0; s < rows; s++ {
					for i := 0; i < cols; i++ {
						g, w := out.Row(s)[i], want[s][i]
						gm, wm := got.mask.Row(s)[i], ref.mask[s][i]
						if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(gm) != math.Float64bits(wm) {
							t.Fatalf("rate %v, %dx%d, pass %d, [%d][%d] (x = %v): out %x mask %x, reference out %x mask %x",
								rate, rows, cols, pass, s, i, x[s][i], math.Float64bits(g), math.Float64bits(gm), math.Float64bits(w), math.Float64bits(wm))
						}
					}
				}
				if got.r.State() != ref.r.State() {
					t.Fatalf("rate %v, %dx%d, pass %d: source state %v, reference %v", rate, rows, cols, pass, got.r.State(), ref.r.State())
				}
			}
		}
	}
}
