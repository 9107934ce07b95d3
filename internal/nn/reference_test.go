package nn

// The pre-refactor naive layer implementations, kept verbatim (modulo
// ref* renames and the slice-of-slices batch type they used) as the
// executable specification of the blocked kernels. Every kernel result —
// forward logits, training losses, evolved weights, dropout RNG streams —
// must match these reference implementations bit for bit: the trial
// prefix cache, the binary delta codec and spot salvage all assume a
// trial's floats are a pure function of its inputs. The parity tests
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

func (n *refNetwork) Evaluate(set *dataset.Set) (accuracy, loss float64) {
	const chunk = 256
	correct := 0
	totalLoss := 0.0
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
		l, _ := refSoftmaxXE(logits, labels)
		totalLoss += l * float64(end-start)
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
	return float64(correct) / float64(set.Len()), totalLoss / float64(set.Len())
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
			got, err := net.TrainBatch(fromRows(x), labels, 0.05)
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
	wantAcc, wantLoss := ref.Evaluate(test)
	gotAcc, gotLoss, err := net.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if gotAcc != wantAcc || gotLoss != wantLoss {
		t.Fatalf("eval = (%v, %v), want (%v, %v)", gotAcc, gotLoss, wantAcc, wantLoss)
	}
	if !bytes.Equal(ref.CaptureState(nil), net.CaptureState(nil)) {
		t.Fatal("epoch-trained state diverged from reference")
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
	if _, err := net.TrainBatch(x, []int{0, 2}, 0.1); err != nil {
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

// TestAccumMatchesGeneric pins the accumulate kernel — the assembly on
// amd64, and its portable twin everywhere — bit for bit against the
// straight term-by-term loop the kernel replaced, over every width that
// hits a column-block tail, every term count up to past a full chunk,
// packed and padded row strides, unaligned row offsets, and terms that
// are ±0, NaN, ±Inf or denormal (the kernel itself skips nothing: the
// zero-skip is accumRows' business). Where both sides are NaN the
// payload is not compared: which operand's payload an SSE add or
// multiply of two NaNs keeps depends on operand order, which Go does not
// fix for the portable loops.
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
				ts := make([]term, nt)
				for k := range ts {
					ts[k] = term{v: r.Range(-2, 2), off: lead + k*stride}
					if r.Float64() < 0.15 {
						ts[k].v = special[r.Intn(len(special))]
					}
				}
				want := make([]float64, n)
				for i := range want {
					want[i] = r.Range(-2, 2)
				}
				gotAsm := append([]float64(nil), want...)
				gotGen := append([]float64(nil), want...)
				for _, tm := range ts {
					for j := range want {
						want[j] += float64(tm.v * w[tm.off+j])
					}
				}
				accum(gotAsm, w, ts)
				accumGeneric(gotGen, w, ts)
				for name, got := range map[string][]float64{"accum": gotAsm, "accumGeneric": gotGen} {
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
		nt := compact(ts[:], a, ak, len(vals), 100, 7)
		var want []term
		for i, v := range vals {
			if v != 0 {
				want = append(want, term{v, 100 + 7*i})
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
