// Package nn is a small, dependency-free neural-network library with real
// minibatch stochastic gradient descent.
//
// PipeTune's premise (§1, §5) is that SGD training is iterative and
// repetitive at epoch granularity — this package supplies genuine iterative
// SGD so that the hyperparameters the paper tunes (batch size, learning
// rate, dropout, capacity/embedding width, epochs) influence accuracy
// through the true mechanism rather than a curve fit. Only epoch *duration*
// is delegated to the analytical cost model (package costmodel), because
// wall-clock time on the reproduction host is not the quantity under study.
//
// The library provides dense layers, ReLU/Tanh activations, inverted
// dropout, a fused softmax cross-entropy head, and a model zoo mirroring
// the paper's architectures (LeNet5, CNN, LSTM, plus the Rodinia kernels'
// small classifiers).
//
// Compute kernels: every tensor lives in one contiguous row-major
// []float64 (Batch), every layer owns pre-sized scratch arenas reused
// across batches and epochs, and the dense layers run on one
// register-accumulating kernel (accum.go) — so the train/eval steady
// state allocates nothing.
// The float64 operation sequence of every result element is kept exactly
// as the naive reference implementation produced it (see
// reference_test.go), because downstream planes — the trial prefix
// cache and remote workers — rely on bit-identical trial
// results. A trial's kernels run serially on its own goroutine;
// parallelism is across trials, never inside one.
package nn

import (
	"errors"
	"fmt"
	"math"

	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Batch is a minibatch of feature vectors in one contiguous row-major
// buffer: sample s's features are Data[s*Cols : (s+1)*Cols]. The flat
// layout is what makes the kernels block and the arenas reusable — a
// resize that fits in capacity is two field writes, not len(x) makes.
type Batch struct {
	Data []float64
	Rows int
	Cols int
}

// Row returns sample s's feature vector, aliasing the batch buffer.
func (b *Batch) Row(s int) []float64 {
	return b.Data[s*b.Cols : (s+1)*b.Cols]
}

// resize reshapes b, growing the backing buffer only when capacity is
// exceeded. Contents after a resize are unspecified: kernels overwrite
// every element they expose.
func (b *Batch) resize(rows, cols int) {
	n := rows * cols
	if cap(b.Data) < n {
		b.Data = make([]float64, n)
	}
	b.Data = b.Data[:n]
	b.Rows, b.Cols = rows, cols
}

// evalChunk is the tallest batch any layer sees. A network runs its
// training batches and its evaluation in chunks of min(batch, evalChunk)
// rows — a taller training batch as slices that accumulate one gradient
// — and every arena is that many rows.
const evalChunk = 256

// axpyGeneric computes o[j] += xi * w[j] for all j, unrolled 4-wide.
// Every o[j] is an independent accumulator, so unrolling changes no
// per-element addition order: results are bit-identical to the straight
// loop (the float64 conversions keep a target with FMA from fusing the
// rounded product away). On amd64 the axpy entry point dispatches to
// packed SSE2/AVX kernels with the same per-element operation sequence
// (axpy_amd64.s); elsewhere axpy is this function.
func axpyGeneric(o, w []float64, xi float64) {
	w = w[:len(o)]
	j := 0
	for ; j+4 <= len(o); j += 4 {
		o[j] += float64(xi * w[j])
		o[j+1] += float64(xi * w[j+1])
		o[j+2] += float64(xi * w[j+2])
		o[j+3] += float64(xi * w[j+3])
	}
	for ; j < len(o); j++ {
		o[j] += float64(xi * w[j])
	}
}

// reluFwdGeneric is the portable ReLU forward: dst[i] = src[i] if
// src[i] > 0, else +0 (NaN and -0 both map to +0).
func reluFwdGeneric(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// reluBwdGeneric is the portable ReLU backward: dst[i] = g[i] where
// y[i] > 0, else +0.
func reluBwdGeneric(dst, y, g []float64) {
	y = y[:len(dst)]
	g = g[:len(dst)]
	for i, v := range y {
		if v > 0 {
			dst[i] = g[i]
		} else {
			dst[i] = 0
		}
	}
}

// Layer is one differentiable network stage. Forward must cache whatever it
// needs for the subsequent Backward; Update applies accumulated gradients.
// Returned batches alias layer-owned arenas and are valid until the
// layer's next Forward/Backward. Layers are not safe for concurrent use:
// one network per trial. A training batch taller than the network's chunk
// reaches the layers as consecutive slices, each one Forward and one
// Backward, before a single Update.
type Layer interface {
	// Forward maps inputs to outputs. train toggles training-only
	// behaviour (dropout masks).
	Forward(x *Batch, train bool) *Batch
	// Backward receives dLoss/dOutput and returns dLoss/dInput, caching
	// parameter gradients for Update.
	Backward(grad *Batch) *Batch
	// Update applies one SGD step with the given learning rate.
	Update(lr float64)
}

// arenaLayer lets Build pre-size a layer's arenas to the network's chunk
// of rows so the steady state never grows them. It returns the layer's
// output width given its input width.
type arenaLayer interface {
	prealloc(rows, cols int) int
}

// Dense is a fully connected layer with bias.
type Dense struct {
	In, Out int
	w       []float64 // In*Out, row-major by input
	b       []float64
	gw      []float64
	gb      []float64
	wt      []float64 // Out*In transpose of w for the dx kernel, made by the first Backward

	// noDx marks the network's first layer: nothing consumes dLoss/dInput
	// there, so Backward skips the dx matmul (often the widest one)
	// entirely, and neither wt nor the dx arena exists. Weight/bias
	// gradients are unaffected.
	noDx bool
	// accum marks the second and later slices of a batch: Backward adds
	// to gw and gb instead of starting them from +0, and reuses wt.
	accum bool

	x   *Batch // cached input (aliases the upstream layer's arena)
	out Batch  // forward arena
	dx  Batch  // backward arena
}

// NewDense creates a dense layer with He-uniform initial weights drawn from r.
func NewDense(in, out int, r *xrand.Source) *Dense {
	d := &Dense{
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

func (d *Dense) prealloc(rows, _ int) int {
	d.out.resize(rows, d.Out)
	if !d.noDx {
		d.dx.resize(rows, d.In)
	}
	return d.Out
}

// Forward implements Layer. It computes o[s] = b + x[s]·w: per output
// element the additions run in ascending input order starting from the
// bias, exactly as the reference did — the kernel starts each row's
// accumulators from b. Zero inputs are skipped (the text workloads are
// sparse).
func (d *Dense) Forward(x *Batch, _ bool) *Batch {
	d.x = x
	d.out.resize(x.Rows, d.Out)
	accumRows(d.out.Data, d.Out, d.Out, d.b, 0, x.Data, x.Cols, 1, x.Cols, d.w, d.Out, 0, x.Rows)
	return &d.out
}

// Backward implements Layer.
//
// Zero-skip bit-identity: both gradient kernels below skip terms whose
// scalar factor is exactly zero. With finite co-factors the skipped
// product is ±0, and the accumulators start at +0 and can never reach
// -0 (in round-to-nearest, -0 only arises from (-0)+(-0), unreachable
// from +0), so adding the skipped ±0 would have been an identity —
// results are bit-identical to the skip-free reference. The forward
// kernel has skipped zero inputs under the same finiteness assumption
// since the seed; the parity suites and the end-to-end golden digest
// pin both empirically.
func (d *Dense) Backward(grad *Batch) *Batch {
	in, out, cols := d.In, d.Out, d.x.Cols
	if !d.noDx {
		// Refresh the weight transpose the dx kernel streams (w moved
		// last Update): O(In*Out) once per batch against the kernel's
		// O(rows*In*Out).
		if !d.accum {
			if d.wt == nil {
				d.wt = make([]float64, in*out)
			}
			transpose(d.wt, d.w, in, out)
		}
		// dx[s][i] = w[i]·g[s], computed as dx[s] = Σ_j g[s][j]·wt[j] over
		// the transposed weights from +0, so each dx[s][i] sums its terms
		// in exactly the reference's single-accumulator order — on the
		// throughput-bound kernel instead of a latency-bound dot chain,
		// and skipping the (post-ReLU, frequently zero) gradient entries.
		// Input rows narrower than In contribute zeros.
		d.dx.resize(grad.Rows, in)
		n := min(cols, in)
		accumRows(d.dx.Data, in, n, nil, 0, grad.Data, grad.Cols, 1, grad.Cols, d.wt, in, 0, grad.Rows)
		if n < in {
			for s := 0; s < grad.Rows; s++ {
				clear(d.dx.Row(s)[n:])
			}
		}
	}
	// gw[i] = Σ_s x[s][i]·g[s]: the same nest with x read by column, so a
	// gradient row is written once per sample chunk, not once per sample.
	// A batch's first slice starts gw and gb from +0, later ones add.
	var from []float64
	if d.accum {
		from = d.gw
	} else {
		clear(d.gw[cols*out:])
		clear(d.gb)
	}
	accumRows(d.gw, out, out, from, out, d.x.Data, 1, cols, grad.Rows, grad.Data, grad.Cols, 0, cols)
	for s := 0; s < grad.Rows; s++ {
		axpy(d.gb, grad.Row(s), 1)
	}
	return &d.dx
}

// Update implements Layer. w[i] -= lr*gw[i] is computed as
// w[i] += (-lr)*gw[i] on the packed kernel — IEEE negation and
// subtraction-as-addition-of-negation are exact, so the bits match the
// reference's subtraction loop.
func (d *Dense) Update(lr float64) {
	axpy(d.w, d.gw, -lr)
	axpy(d.b, d.gb, -lr)
}

// ReLU is the rectified linear activation. Backward keys off the cached
// output (y > 0 exactly when the input was > 0), which removes the old
// separate mask buffer — and with it the stale-columns edge case an empty
// batch used to leave behind.
type ReLU struct {
	y  Batch
	dx Batch
}

func (a *ReLU) prealloc(rows, cols int) int {
	a.y.resize(rows, cols)
	a.dx.resize(rows, cols)
	return cols
}

// Forward implements Layer.
func (a *ReLU) Forward(x *Batch, _ bool) *Batch {
	a.y.resize(x.Rows, x.Cols)
	reluFwd(a.y.Data, x.Data)
	return &a.y
}

// Backward implements Layer.
func (a *ReLU) Backward(grad *Batch) *Batch {
	a.dx.resize(grad.Rows, grad.Cols)
	reluBwd(a.dx.Data, a.y.Data, grad.Data)
	return &a.dx
}

// Update implements Layer (no parameters).
func (a *ReLU) Update(float64) {}

// Tanh is the hyperbolic-tangent activation (used by the LSTM stand-in).
type Tanh struct {
	y  Batch
	dx Batch
}

func (a *Tanh) prealloc(rows, cols int) int {
	a.y.resize(rows, cols)
	a.dx.resize(rows, cols)
	return cols
}

// Forward implements Layer.
func (a *Tanh) Forward(x *Batch, _ bool) *Batch {
	a.y.resize(x.Rows, x.Cols)
	tanhFwd(a.y.Data, x.Data)
	return &a.y
}

// Backward implements Layer: dx = g·(1 − y²).
func (a *Tanh) Backward(grad *Batch) *Batch {
	a.dx.resize(grad.Rows, grad.Cols)
	tanhBwd(a.dx.Data, a.y.Data, grad.Data)
	return &a.dx
}

// Update implements Layer (no parameters).
func (a *Tanh) Update(float64) {}

// Dropout implements inverted dropout: active only in training mode, where
// each unit is zeroed with probability Rate and survivors are scaled by
// 1/(1-Rate) so evaluation needs no rescaling.
type Dropout struct {
	Rate float64
	r    *xrand.Source

	active bool // a mask was drawn by the last Forward
	mask   Batch
	out    Batch
	dx     Batch
}

// NewDropout creates a dropout layer with its own random stream.
func NewDropout(rate float64, r *xrand.Source) *Dropout {
	return &Dropout{Rate: rate, r: r}
}

func (d *Dropout) prealloc(rows, cols int) int {
	if d.Rate > 0 { // at rate 0 Forward passes x through and Backward grad
		d.mask.resize(rows, cols)
		d.out.resize(rows, cols)
		d.dx.resize(rows, cols)
	}
	return cols
}

// dropBlock is how many mask draws Dropout.Forward takes from its source
// at a time, into a stack block.
const dropBlock = 256

// Forward implements Layer. The mask draw is one RNG output per element
// in row-major order, the dropout stream's draw sequence being part of a
// trial's identity; the outputs come dropBlock at a time from
// xrand.Fill. An element is kept when its draw's Float64 is below keep.
// That float is u>>11 scaled by the exact power of two 2⁻⁵³, so the test
// is u>>11 < keep·2⁵³ — against an integer, u>>11 < ⌈keep·2⁵³⌉ — and its
// outcome masks both results (dropMask): a kept element is v/keep with
// mask 1/keep, as the reference computes them, and a dropped one is +0
// in both.
func (d *Dropout) Forward(x *Batch, train bool) *Batch {
	if !train || d.Rate <= 0 {
		d.active = false
		return x
	}
	d.active = true
	keep := 1 - d.Rate
	inv := math.Float64bits(1 / keep)
	var below uint64 // draws u>>11 < below are kept; none when keep ≤ 0 or NaN
	if keep > 0 {
		below = uint64(math.Ceil(keep * (1 << 53)))
	}
	d.mask.resize(x.Rows, x.Cols)
	d.out.resize(x.Rows, x.Cols)
	m, o, in := d.mask.Data, d.out.Data, x.Data[:len(d.out.Data)]
	var u [dropBlock]uint64
	for len(in) > 0 {
		blk := u[:min(dropBlock, len(in))]
		d.r.Fill(blk)
		dropMask(m[:len(blk)], o[:len(blk)], in[:len(blk)], blk, below, inv, keep)
		m, o, in = m[len(blk):], o[len(blk):], in[len(blk):]
	}
	return &d.out
}

// Backward implements Layer: dx = g·mask.
func (d *Dropout) Backward(grad *Batch) *Batch {
	if !d.active {
		return grad
	}
	d.dx.resize(grad.Rows, grad.Cols)
	mul(d.dx.Data, grad.Data, d.mask.Data)
	return &d.dx
}

// Update implements Layer (no parameters).
func (d *Dropout) Update(float64) {}

// Network is a sequential stack of layers with a softmax cross-entropy head.
// It owns the cross-layer scratch (gathered minibatch, shuffle
// permutation, softmax gradients) so a trial's steady state allocates
// nothing.
type Network struct {
	layers []Layer
	chunk  int // rows per pass through the stack: min(batch, evalChunk)

	in     Batch // gathered minibatch features
	labels []int // gathered minibatch labels
	perm   []int // epoch shuffle permutation
	view   Batch // trainBatch's current slice of its caller's batch

	smx Batch // softmax gradient arena
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{layers: layers, chunk: evalChunk}
	// Nothing consumes the first layer's input gradient, so a Dense head
	// can skip its dx matmul — usually the widest in the stack. The
	// produced loss, parameter gradients and state are unchanged.
	if len(layers) > 0 {
		if d, ok := layers[0].(*Dense); ok {
			d.noDx = true
		}
	}
	return n
}

// prealloc makes rows the network's chunk and sizes every arena in the
// stack to it, so steady-state training and evaluation never allocate.
func (n *Network) prealloc(rows, cols int) {
	n.chunk = rows
	n.in.resize(rows, cols)
	n.labels = make([]int, rows)
	for _, l := range n.layers {
		if al, ok := l.(arenaLayer); ok {
			cols = al.prealloc(rows, cols)
		}
	}
	n.smx.resize(rows, cols)
}

// Forward runs the stack and returns the logits. The result aliases the
// last layer's arena and is valid until the next Forward.
func (n *Network) Forward(x *Batch, train bool) *Batch {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// softmaxXE writes dLoss/dLogits for the rows of logits to n.smx — the
// softmax probabilities less the one-hot label, times inv, the batch's
// 1/rows — and returns loss plus the rows' cross-entropies, added in
// row order as the reference summed a whole batch.
func (n *Network) softmaxXE(logits *Batch, labels []int, inv, loss float64) float64 {
	n.smx.resize(logits.Rows, logits.Cols)
	for s, label := range labels[:logits.Rows] {
		row := logits.Row(s)
		probs := n.smx.Row(s)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		expShift(probs, row, maxV)
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		for i := range probs {
			probs[i] /= sum
		}
		p := probs[label]
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -log(p)
		probs[label] -= 1
		for i := range probs {
			probs[i] *= inv
		}
	}
	return loss
}

// trainBatch runs one forward+backward pass over the minibatch and applies
// one SGD update. It returns the pre-update mean cross-entropy loss.
func (n *Network) trainBatch(x *Batch, labels []int, lr float64) (float64, error) {
	if x == nil || x.Rows == 0 || x.Rows != len(labels) {
		return 0, errors.New("nn: batch and labels must be non-empty and equal length")
	}
	return n.step(x.Rows, lr, func(lo, hi int) (*Batch, []int) {
		n.view = Batch{Data: x.Data[lo*x.Cols : hi*x.Cols], Rows: hi - lo, Cols: x.Cols}
		return &n.view, labels[lo:hi]
	}), nil
}

// step is one SGD step over a batch of rows samples. The batch runs
// through the stack in slices of at most n.chunk rows, which
// load(lo, hi) supplies, and whose gradients add up in the Dense layers
// before one Update. That is exact: rows are independent, gw and gb
// still see the samples in ascending order, the dropout masks are drawn
// in the same row-major order, and the loss sum and the 1/rows gradient
// scale span the whole batch. It returns the batch's mean loss.
func (n *Network) step(rows int, lr float64, load func(lo, hi int) (*Batch, []int)) float64 {
	inv := 1 / float64(rows)
	loss := 0.0
	for lo := 0; lo < rows; lo += n.chunk {
		x, labels := load(lo, min(lo+n.chunk, rows))
		loss = n.softmaxXE(n.Forward(x, true), labels, inv, loss)
		grad := &n.smx
		for i := len(n.layers) - 1; i >= 0; i-- {
			if d, ok := n.layers[i].(*Dense); ok {
				d.accum = lo > 0
			}
			grad = n.layers[i].Backward(grad)
		}
	}
	for _, l := range n.layers {
		l.Update(lr)
	}
	return loss / float64(rows)
}

// gather expands the indexed samples into the network's input arena.
func (n *Network) gather(set *dataset.Set, idx []int) {
	n.in.resize(len(idx), set.Dim)
	if cap(n.labels) < len(idx) {
		n.labels = make([]int, len(idx))
	}
	n.labels = n.labels[:len(idx)]
	for i, sIdx := range idx {
		set.Row(sIdx, n.in.Row(i))
		n.labels[i] = set.Label(sIdx)
	}
}

// gatherRange is gather for the contiguous index range [start, end) —
// Evaluate's unshuffled chunks need no materialised index slice.
func (n *Network) gatherRange(set *dataset.Set, start, end int) {
	n.in.resize(end-start, set.Dim)
	if cap(n.labels) < end-start {
		n.labels = make([]int, end-start)
	}
	n.labels = n.labels[:end-start]
	for i := start; i < end; i++ {
		set.Row(i, n.in.Row(i-start))
		n.labels[i-start] = set.Label(i)
	}
}

// TrainEpoch runs one full epoch of minibatch SGD over set, shuffling with
// r, and returns the mean training loss across batches.
func (n *Network) TrainEpoch(set *dataset.Set, batchSize int, lr float64, r *xrand.Source) (float64, error) {
	if set.Len() == 0 {
		return 0, errors.New("nn: empty training set")
	}
	if batchSize <= 0 {
		return 0, fmt.Errorf("nn: invalid batch size %d", batchSize)
	}
	size := set.Len()
	if cap(n.perm) < size {
		n.perm = make([]int, size)
	}
	perm := n.perm[:size]
	for i := range perm {
		perm[i] = i
	}
	// Identity fill + Shuffle is exactly what xrand's Perm does, minus its
	// per-epoch allocation: the RNG draw sequence is unchanged.
	r.Shuffle(size, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	total, batches := 0.0, 0
	err := dataset.EachBatch(size, batchSize, perm, func(idx []int) error {
		total += n.step(len(idx), lr, func(lo, hi int) (*Batch, []int) {
			n.gather(set, idx[lo:hi])
			return &n.in, n.labels
		})
		batches++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total / float64(batches), nil
}

// Evaluate returns classification accuracy in [0,1] on set.
func (n *Network) Evaluate(set *dataset.Set) (float64, error) {
	if set.Len() == 0 {
		return 0, errors.New("nn: empty evaluation set")
	}
	correct := 0
	for start := 0; start < set.Len(); start += n.chunk {
		end := min(start+n.chunk, set.Len())
		n.gatherRange(set, start, end)
		correct += countCorrect(n.Forward(&n.in, false), n.labels)
	}
	return float64(correct) / float64(set.Len()), nil
}

// countCorrect counts the samples whose argmax logit is their label (the
// first maximum wins ties).
func countCorrect(logits *Batch, labels []int) int {
	c := 0
	for s, l := range labels {
		row := logits.Row(s)
		best := 0
		for i, v := range row {
			if v > row[best] {
				best = i
			}
		}
		if best == l {
			c++
		}
	}
	return c
}

// Arch names a layer stack Build can construct. Several models may share
// one: the three Rodinia kernels all train the same small classifier, so
// anything that identifies a trained network — the trial prefix cache key —
// names the Arch, not the model.
type Arch int

const (
	ArchUnknown Arch = iota
	ArchLeNet5
	ArchTextCNN
	ArchTextLSTM
	ArchKernel
)

// ArchOf returns the layer stack Build constructs for m; Build switches on
// it, so the two cannot drift.
func ArchOf(m workload.Model) Arch {
	switch m {
	case workload.LeNet5:
		return ArchLeNet5
	case workload.CNN:
		return ArchTextCNN
	case workload.LSTM:
		return ArchTextLSTM
	case workload.Jacobi, workload.SPKMeans, workload.BFS:
		return ArchKernel
	}
	return ArchUnknown
}

// Build constructs the architecture for the given model per the paper's
// zoo: LeNet5 (compact CNN stand-in), CNN and LSTM text classifiers whose
// first hidden width is the tunable embedding dimension (§7.1.3 item 3),
// and small classifiers for the Rodinia Type-III kernels. Every arena in
// the stack is pre-sized here to the network's chunk, the training batch
// up to evalChunk rows, so trial steady state allocates nothing.
func Build(m workload.Model, inputDim, classes int, h params.Hyper, r *xrand.Source) (*Network, error) {
	if inputDim <= 0 || classes <= 1 {
		return nil, fmt.Errorf("nn: invalid shape in=%d classes=%d", inputDim, classes)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	emb := h.EmbeddingDim
	var net *Network
	switch ArchOf(m) {
	case ArchLeNet5:
		net = NewNetwork(
			NewDense(inputDim, 48, r),
			&ReLU{},
			NewDropout(h.Dropout, r.Split()),
			NewDense(48, 24, r),
			&ReLU{},
			NewDense(24, classes, r),
		)
	case ArchTextCNN:
		net = NewNetwork(
			NewDense(inputDim, emb, r),
			&ReLU{},
			NewDropout(h.Dropout, r.Split()),
			NewDense(emb, 48, r),
			&ReLU{},
			NewDense(48, classes, r),
		)
	case ArchTextLSTM:
		net = NewNetwork(
			NewDense(inputDim, emb, r),
			&Tanh{},
			NewDropout(h.Dropout, r.Split()),
			NewDense(emb, emb/2+1, r),
			&Tanh{},
			NewDense(emb/2+1, classes, r),
		)
	case ArchKernel:
		net = NewNetwork(
			NewDense(inputDim, 16, r),
			&ReLU{},
			NewDense(16, classes, r),
		)
	default:
		return nil, fmt.Errorf("nn: unknown model %v", m)
	}
	net.prealloc(min(h.BatchSize, evalChunk), inputDim)
	return net, nil
}
