package nn

// Mutable-state serialization for trained networks. The trainer's prefix
// cache checkpoints a network at an epoch boundary and later resumes a
// deeper trial from it; for that to be bit-identical the checkpoint must
// capture exactly the state SGD evolves — Dense weights and biases, and
// each Dropout layer's private RNG stream — and nothing else. Activation
// layers (ReLU, Tanh) keep only per-batch scratch that the next Forward
// overwrites, so they serialize to nothing. Restoration targets a network
// freshly constructed by Build with the same (model, shape, hyper, seed):
// the architecture is reproduced by construction and only the mutable
// state is overwritten.
//
// Encoding is fixed-width little-endian: float64s travel as IEEE-754 bit
// patterns, so a restored weight is the captured weight, bit for bit.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// state layout version; bumped on incompatible changes.
const stateVersion = 1

// per-layer kind tags in the serialized stream.
const (
	stateDense   byte = 1
	stateDropout byte = 2
	stateNoParam byte = 3 // ReLU, Tanh: presence recorded, no payload
)

// StateSize is the exact number of bytes CaptureState appends, so a
// caller that retains the capture can allocate it once with no slack.
func (n *Network) StateSize() int {
	size := 1 + 4 // version, layer count
	for _, l := range n.layers {
		size++ // kind tag
		switch l := l.(type) {
		case *Dense:
			size += 4 + 8*len(l.w) + 4 + 8*len(l.b)
		case *Dropout:
			size += 4 * 8
		}
	}
	return size
}

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

// stateReader walks a captured state buffer.
type stateReader struct {
	b   []byte
	off int
}

func (r *stateReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("nn: truncated state at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *stateReader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("nn: truncated state at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *stateReader) f64s(dst []float64) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if int(n) != len(dst) {
		return fmt.Errorf("nn: state vector length %d, want %d", n, len(dst))
	}
	if r.off+8*int(n) > len(r.b) {
		return fmt.Errorf("nn: truncated state at offset %d", r.off)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return nil
}

// RestoreState overwrites the network's mutable training state with a
// capture taken from an identically constructed network. The layer stack
// must match kind for kind and shape for shape; on any mismatch (or a
// corrupt buffer) an error is returned and the receiver may be left
// partially restored — callers must discard it.
func (n *Network) RestoreState(data []byte) error {
	r := &stateReader{b: data}
	v, err := r.u8()
	if err != nil {
		return err
	}
	if v != stateVersion {
		return fmt.Errorf("nn: unsupported state version %d", v)
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	if int(count) != len(n.layers) {
		return fmt.Errorf("nn: state has %d layers, network has %d", count, len(n.layers))
	}
	for i, l := range n.layers {
		kind, err := r.u8()
		if err != nil {
			return err
		}
		switch l := l.(type) {
		case *Dense:
			if kind != stateDense {
				return fmt.Errorf("nn: layer %d kind %d, want dense", i, kind)
			}
			if err := r.f64s(l.w); err != nil {
				return err
			}
			if err := r.f64s(l.b); err != nil {
				return err
			}
		case *Dropout:
			if kind != stateDropout {
				return fmt.Errorf("nn: layer %d kind %d, want dropout", i, kind)
			}
			var s [4]uint64
			for j := range s {
				if r.off+8 > len(r.b) {
					return fmt.Errorf("nn: truncated state at offset %d", r.off)
				}
				s[j] = binary.LittleEndian.Uint64(r.b[r.off:])
				r.off += 8
			}
			l.r.SetState(s)
		default:
			if kind != stateNoParam {
				return fmt.Errorf("nn: layer %d kind %d, want parameterless", i, kind)
			}
		}
	}
	if r.off != len(r.b) {
		return fmt.Errorf("nn: %d trailing state bytes", len(r.b)-r.off)
	}
	return nil
}

// StateDigest is a 64-bit FNV-1a over a captured state buffer — a cheap
// fingerprint the prefix cache stores alongside a checkpoint so resumed
// and from-scratch runs can be asserted to have converged to the same
// weights.
func StateDigest(state []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range state {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
