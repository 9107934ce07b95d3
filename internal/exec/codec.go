package exec

// This file is the work protocol's codec: the frame discipline and the
// per-message encodings exchanged over one persistent stream between
// the daemon's Remote backend and a pipetune-worker agent (the stream
// halves live in stream.go and streamagent.go).
//
// Framing reuses the discipline of internal/gt's write-ahead log, but on
// the wire instead of on disk:
//
//	frame := [1 byte type]
//	         [uint32 payload length (LE)]
//	         [uint32 CRC-32 (IEEE) of the payload]
//	         [payload]
//
// A torn or bit-flipped frame is detected by the length/CRC header before
// any payload field is decoded; the receiver treats it as a dead peer
// (the daemon evicts the worker and requeues its leases — the same
// recovery path a crashed worker takes), never as data.
//
// Encoding is deliberately allocation-free on the hot path: fixed-width
// little-endian integers and IEEE-754 bit patterns, unsigned varints for
// small counts, length-prefixed strings — appended field by field into a
// pooled buffer. No reflection, no intermediate maps, no encoding/json.
// Floats travel as raw bit patterns, so a decoded value is the encoded
// value, bit for bit — remote-equals-local bit-identity depends on it.
//
// Every frame decodes on its own, with no state from the receiver's
// side. A Complete frame carries the trainer.Result the worker's trainer
// returned — workload, hyperparameters, totals and every epoch — as the
// trainer computed it, so how a trial's totals are computed is decided
// in internal/trainer alone.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// WireBinary is accepted and ignored; the stream is the only wire;
// delete with the next benchmark PR.
const WireBinary = "binary"

// streamUpgradeProto names the protocol in the HTTP Upgrade handshake
// that turns POST /v1/stream into a raw framed stream. It is the only
// version on the wire: the daemon and its workers upgrade together, any
// change to a frame layout bumps it, and a daemon answers any other
// token with 426 before a frame is exchanged.
const streamUpgradeProto = "pipetune-stream/7"

// streamMagic opens the stream right after the HTTP 101: a peer that is
// not speaking this protocol is detected before the first frame.
const streamMagic = "PTEXSTR1"

// Frame types. Directionality is fixed per type; an unexpected type is a
// protocol error and kills the stream.
const (
	frameHello     byte = iota + 1 // worker → daemon: name, capacity
	frameWelcome                   // daemon → worker: worker id, heartbeat cadence
	frameStats                     // worker → daemon: the heartbeat, a cumulative telemetry snapshot
	frameGrant                     // daemon → worker: batch of lease assignments
	frameEpoch                     // worker → daemon: one epoch-boundary observation
	frameDirective                 // daemon → worker: the observer's reply to an epoch
	frameComplete                  // worker → daemon: at-most-once result commit
	frameAck                       // daemon → worker: commit outcome
)

// Ack codes.
const (
	ackCommitted  byte = iota // result accepted (or abandonment requeued)
	ackSuperseded             // lease revoked/reassigned: the result was discarded
	ackUnknown                // worker evicted: re-register
)

// Complete statuses.
const (
	completeOK        byte = iota // payload carries the trial's result
	completeError                 // payload carries the trial's error string
	completeAbandoned             // worker cannot finish; requeue now
)

// frameHeaderLen is the fixed frame header size: type + length + CRC.
const frameHeaderLen = 1 + 4 + 4

// maxFramePayload bounds one frame so a corrupted length prefix cannot
// ask the receiver to allocate gigabytes (the WAL's walMaxRecord, on the
// wire).
const maxFramePayload = 16 << 20

// errFrameCorrupt reports a frame that failed the length/CRC discipline
// or a payload that failed structural decoding. It is terminal for the
// stream: the receiver treats the peer as dead.
var errFrameCorrupt = errors.New("exec: corrupt stream frame")

// readFrame reads one frame, reusing *scratch as the payload buffer
// (grown as needed, never shrunk — steady state reads allocate nothing).
// The returned payload aliases *scratch and is valid until the next call.
func readFrame(r io.Reader, scratch *[]byte) (ft byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // clean EOF between frames = peer gone
	}
	ft = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	crc := binary.LittleEndian.Uint32(hdr[5:9])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", errFrameCorrupt, n)
	}
	if cap(*scratch) < int(n) {
		*scratch = make([]byte, n)
	}
	payload = (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: torn payload: %v", errFrameCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", errFrameCorrupt)
	}
	return ft, payload, nil
}

// streamWriteTimeout bounds every frame write: a peer that stopped
// reading (silent NAT drop, wedged process) fills the socket buffer and
// would otherwise block the sender forever — the deadline turns that
// into a session-ending error, which the liveness protocol handles.
const streamWriteTimeout = 30 * time.Second

// frameWriter frames and writes messages onto one connection. Safe for
// concurrent use (the daemon's granter and reader both send); each frame
// goes out in a single Write so frames never interleave.
type frameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // reused header+payload assembly; grown, never shrunk
	// txFrames/txBytes, when set (daemon side), count sent traffic.
	// Nil-safe no-ops otherwise.
	txFrames *metrics.Counter
	txBytes  *metrics.Counter
}

func (fw *frameWriter) send(ft byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if c, ok := fw.w.(net.Conn); ok {
		_ = c.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	}
	need := frameHeaderLen + len(payload)
	if cap(fw.buf) < need {
		fw.buf = make([]byte, need)
	}
	b := fw.buf[:need]
	b[0] = ft
	binary.LittleEndian.PutUint32(b[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[5:9], crc32.ChecksumIEEE(payload))
	copy(b[frameHeaderLen:], payload)
	_, err := fw.w.Write(b)
	if err == nil {
		fw.txFrames.Inc()
		fw.txBytes.Add(uint64(need))
	}
	return err
}

// wirebuf is the pooled encode buffer: payloads are appended field by
// field, handed to frameWriter.send, and the buffer returned to the pool.
type wirebuf struct{ b []byte }

var wirebufPool = sync.Pool{New: func() any { return &wirebuf{b: make([]byte, 0, 4096)} }}

func getWirebuf() *wirebuf {
	w := wirebufPool.Get().(*wirebuf)
	w.b = w.b[:0]
	return w
}

func putWirebuf(w *wirebuf) { wirebufPool.Put(w) }

func (w *wirebuf) u8(v byte) { w.b = append(w.b, v) }
func (w *wirebuf) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}
func (w *wirebuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wirebuf) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *wirebuf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// wireReader decodes a frame payload field by field. The first structural
// failure (overrun, oversized varint) latches err; subsequent reads
// return zeros, so decoders can read unconditionally and check once.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errFrameCorrupt, what)
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("truncated u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// int reads a uvarint that must fit an int: a larger value is corrupt,
// never a wrapped negative count or size.
func (r *wireReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("uvarint overflows int")
		return 0
	}
	return int(v)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// strView returns the string's bytes as a view into the payload — no
// allocation; valid only while the frame buffer is.
func (r *wireReader) strView() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("truncated string")
		return nil
	}
	v := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return v
}

func (r *wireReader) str() string { return string(r.strView()) }

// count reads a length prefix and sanity-bounds it by the bytes left:
// each counted element needs at least min bytes, so a corrupted count
// cannot drive a huge preallocation.
func (r *wireReader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(r.b)-r.off)/min+1) {
		r.fail("implausible element count")
		return 0
	}
	return int(n)
}

// finish requires the payload to be fully and exactly consumed: trailing
// bytes mean a framing bug or corruption that happened to pass the CRC of
// a shorter message — never silently accepted.
func (r *wireReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", errFrameCorrupt, len(r.b)-r.off)
	}
	return nil
}

// --- Hello / Welcome -------------------------------------------------

func encodeHello(w *wirebuf, name string, capacity int) {
	w.str(name)
	w.uvarint(uint64(capacity))
}

func decodeHello(p []byte) (name string, capacity int, err error) {
	r := wireReader{b: p}
	name = r.str()
	capacity = r.int()
	return name, capacity, r.finish()
}

func encodeWelcome(w *wirebuf, workerID string, heartbeatSeconds float64) {
	w.str(workerID)
	w.f64(heartbeatSeconds)
}

func decodeWelcome(p []byte) (workerID string, heartbeatSeconds float64, err error) {
	r := wireReader{b: p}
	workerID = r.str()
	heartbeatSeconds = r.f64()
	return workerID, heartbeatSeconds, r.finish()
}

// --- Grant -----------------------------------------------------------

// assignment flag bits.
const asgStreamEpochs = 1 << 0

// appendAssignment encodes one lease grant. Called by the daemon's
// granter under the backend lock; reads only fields that are immutable
// while the lease is assigned.
func appendAssignment(w *wirebuf, leaseID string, attempt int, t *Trial) {
	w.str(leaseID)
	w.uvarint(uint64(attempt))
	appendWorkload(w, t.Workload)
	appendHyper(w, t.Hyper)
	appendSys(w, t.Sys)
	w.u64(t.Seed)
	var flags byte
	if t.Observer != nil {
		flags |= asgStreamEpochs
	}
	w.u8(flags)
	w.uvarint(uint64(t.Trainer.TrainSize))
	w.uvarint(uint64(t.Trainer.TestSize))
	w.f64(t.Trainer.Load)
	w.u64(t.Trainer.DataSeed)
	w.uvarint(uint64(t.Trainer.CacheBytes))
}

func readAssignment(r *wireReader, asg *Assignment) {
	asg.LeaseID = r.str()
	asg.Attempt = r.int()
	asg.Workload = readWorkload(r)
	asg.Hyper = readHyper(r)
	asg.Sys = readSys(r)
	asg.Seed = r.u64()
	asg.StreamEpochs = r.u8()&asgStreamEpochs != 0
	asg.Trainer = TrainerConfig{
		TrainSize:  r.int(),
		TestSize:   r.int(),
		Load:       r.f64(),
		DataSeed:   r.u64(),
		CacheBytes: int64(r.int()),
	}
}

// decodeGrant decodes a batch of assignments.
func decodeGrant(p []byte) ([]Assignment, error) {
	r := wireReader{b: p}
	n := r.count(40) // a minimal assignment is well past 40 bytes
	asgs := make([]Assignment, n)
	for i := 0; i < n && r.err == nil; i++ {
		readAssignment(&r, &asgs[i])
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return asgs, nil
}

func appendWorkload(w *wirebuf, wl workload.Workload) {
	w.u8(byte(wl.Model))
	w.u8(byte(wl.Dataset))
}

func readWorkload(r *wireReader) workload.Workload {
	return workload.Workload{Model: workload.Model(r.u8()), Dataset: workload.Dataset(r.u8())}
}

func appendHyper(w *wirebuf, h params.Hyper) {
	w.uvarint(uint64(h.BatchSize))
	w.f64(h.LearningRate)
	w.f64(h.Dropout)
	w.uvarint(uint64(h.EmbeddingDim))
	w.uvarint(uint64(h.Epochs))
}

func readHyper(r *wireReader) params.Hyper {
	return params.Hyper{
		BatchSize:    r.int(),
		LearningRate: r.f64(),
		Dropout:      r.f64(),
		EmbeddingDim: r.int(),
		Epochs:       r.int(),
	}
}

func appendSys(w *wirebuf, s params.SysConfig) {
	w.uvarint(uint64(s.Cores))
	w.uvarint(uint64(s.MemoryGB))
}

func readSys(r *wireReader) params.SysConfig {
	return params.SysConfig{Cores: r.int(), MemoryGB: r.int()}
}

// --- Epoch / Directive -----------------------------------------------

// epoch flag bits.
const epInit = 1 << 0

// appendEpoch encodes one epoch's stats but its profile: the body of an
// Epoch frame and of each epoch in a Complete frame.
func appendEpoch(w *wirebuf, s *trainer.EpochStats) {
	w.uvarint(uint64(s.Epoch))
	var flags byte
	if s.Init {
		flags |= epInit
	}
	w.u8(flags)
	appendSys(w, s.Sys)
	w.f64(s.Duration)
	w.f64(s.EndTime)
	w.f64(s.TrainLoss)
	w.f64(s.Accuracy)
	w.f64(s.EnergyJ)
}

// epochMinLen is the smallest encoded epoch: one-byte epoch number,
// flags and sys fields, and five floats.
const epochMinLen = 1 + 1 + 2 + 5*8

func readEpoch(r *wireReader, s *trainer.EpochStats) {
	s.Epoch = r.int()
	s.Init = r.u8()&epInit != 0
	s.Sys = readSys(r)
	s.Duration = r.f64()
	s.EndTime = r.f64()
	s.TrainLoss = r.f64()
	s.Accuracy = r.f64()
	s.EnergyJ = r.f64()
}

// encodeEpochFrame encodes one epoch-boundary observation (pipelined
// tuning's mid-trial feedback), PMU profile included.
func encodeEpochFrame(w *wirebuf, leaseID string, attempt int, s *trainer.EpochStats) {
	w.str(leaseID)
	w.uvarint(uint64(attempt))
	appendEpoch(w, s)
	appendProfile(w, s.Profile)
}

// decodeEpochFrame decodes an observation. The lease id is returned as a
// payload view (valid until the next read); the profile is a fresh copy
// handed to the daemon-side observer, which may use it for the duration of
// its callback and keeps only what it derives from it.
func decodeEpochFrame(p []byte) (leaseID []byte, attempt int, s trainer.EpochStats, err error) {
	r := wireReader{b: p}
	leaseID = r.strView()
	attempt = r.int()
	readEpoch(&r, &s)
	s.Profile = readProfile(&r)
	return leaseID, attempt, s, r.finish()
}

func appendProfile(w *wirebuf, p perf.Profile) {
	w.uvarint(uint64(len(p)))
	for _, v := range p {
		w.f64(v)
	}
}

func readProfile(r *wireReader) perf.Profile {
	n := r.count(8)
	if n == 0 {
		return nil // preserve nil-ness: an absent profile stays absent
	}
	p := make(perf.Profile, n)
	for i := range p {
		p[i] = r.f64()
	}
	return p
}

// directive flag bits.
const (
	dirRevoked = 1 << 0
	dirHasSys  = 1 << 1
)

func encodeDirective(w *wirebuf, leaseID []byte, attempt, epoch int, d EpochDirective) {
	w.uvarint(uint64(len(leaseID)))
	w.b = append(w.b, leaseID...)
	w.uvarint(uint64(attempt))
	w.uvarint(uint64(epoch))
	var flags byte
	if d.Revoked {
		flags |= dirRevoked
	}
	if d.Sys != nil {
		flags |= dirHasSys
	}
	w.u8(flags)
	if d.Sys != nil {
		appendSys(w, *d.Sys)
	}
}

func decodeDirective(p []byte) (leaseID []byte, attempt, epoch int, d EpochDirective, err error) {
	r := wireReader{b: p}
	leaseID = r.strView()
	attempt = r.int()
	epoch = r.int()
	flags := r.u8()
	d.Revoked = flags&dirRevoked != 0
	if flags&dirHasSys != 0 {
		sys := readSys(&r)
		d.Sys = &sys
	}
	return leaseID, attempt, epoch, d, r.finish()
}

// --- Complete / Ack --------------------------------------------------

// encodeComplete encodes the at-most-once result commit.
func encodeComplete(w *wirebuf, leaseID string, attempt int, status byte, errMsg string, res *trainer.Result) {
	w.str(leaseID)
	w.uvarint(uint64(attempt))
	w.u8(status)
	switch status {
	case completeError:
		w.str(errMsg)
	case completeOK:
		appendResult(w, res)
	}
}

// decodeComplete decodes a commit.
func decodeComplete(p []byte) (leaseID []byte, attempt int, status byte, errMsg string, res *trainer.Result, err error) {
	r := wireReader{b: p}
	leaseID = r.strView()
	attempt = r.int()
	status = r.u8()
	switch status {
	case completeError:
		errMsg = r.str()
	case completeOK:
		res = readResult(&r)
	case completeAbandoned:
	default:
		r.fail("unknown complete status")
	}
	return leaseID, attempt, status, errMsg, res, r.finish()
}

// appendResult encodes a trainer.Result field for field, floats as raw
// bits. It carries no PMU profile: the trainer records none in a
// Result's epochs, and the observer already had each one from its Epoch
// frame.
func appendResult(w *wirebuf, res *trainer.Result) {
	appendWorkload(w, res.Workload)
	appendHyper(w, res.Hyper)
	appendSys(w, res.FinalSys)
	w.f64(res.Accuracy)
	w.f64(res.Duration)
	w.f64(res.EnergyJ)
	w.uvarint(uint64(len(res.Epochs)))
	for i := range res.Epochs {
		appendEpoch(w, &res.Epochs[i])
	}
}

func readResult(r *wireReader) *trainer.Result {
	res := &trainer.Result{
		Workload: readWorkload(r),
		Hyper:    readHyper(r),
		FinalSys: readSys(r),
		Accuracy: r.f64(),
		Duration: r.f64(),
		EnergyJ:  r.f64(),
	}
	n := r.count(epochMinLen)
	if n == 0 {
		return res // preserve nil-ness, as Result.Clone does
	}
	res.Epochs = make([]trainer.EpochStats, n)
	for i := 0; i < n && r.err == nil; i++ {
		readEpoch(r, &res.Epochs[i])
	}
	return res
}

func encodeAck(w *wirebuf, leaseID []byte, attempt int, code byte) {
	w.uvarint(uint64(len(leaseID)))
	w.b = append(w.b, leaseID...)
	w.uvarint(uint64(attempt))
	w.u8(code)
}

func decodeAck(p []byte) (leaseID []byte, attempt int, code byte, err error) {
	r := wireReader{b: p}
	leaseID = r.strView()
	attempt = r.int()
	code = r.u8()
	return leaseID, attempt, code, r.finish()
}

// --- Stats (the heartbeat: worker telemetry) --------------------------
//
// The payload is a cumulative WorkerSeries snapshot: two counters, then
// three sketches (trial seconds, train-epoch seconds, eval seconds),
// each as count/sum/min/max plus only its occupied buckets as (index,
// count) pairs. A worker's sketches span a handful of octaves in
// practice, so the frame stays within tens of bytes.

func appendSketch(w *wirebuf, s metrics.DistSnapshot) {
	w.uvarint(s.Count)
	w.f64(s.Sum)
	w.f64(s.Min)
	w.f64(s.Max)
	w.uvarint(uint64(len(s.Buckets)))
	for _, b := range s.Buckets {
		w.uvarint(uint64(b.Index))
		w.uvarint(b.Count)
	}
}

// readSketch refuses a sum, min or max that is not finite and
// non-negative: sketches hold seconds, and a merged +Inf or NaN would
// make the registry's JSON snapshot unencodable for good.
func readSketch(r *wireReader, s *metrics.DistSnapshot) {
	s.Count = r.uvarint()
	s.Sum = r.f64()
	s.Min = r.f64()
	s.Max = r.f64()
	if !finiteSeconds(s.Sum) || !finiteSeconds(s.Min) || !finiteSeconds(s.Max) {
		r.fail("sketch sum/min/max not finite and non-negative")
	}
	n := r.count(2)
	for i := 0; i < n && r.err == nil; i++ {
		s.Buckets = append(s.Buckets, metrics.BucketCount{
			Index: r.int(),
			Count: r.uvarint(),
		})
	}
}

func finiteSeconds(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func encodeStats(w *wirebuf, s WorkerSeries) {
	w.uvarint(s.Trials)
	w.uvarint(s.Epochs)
	appendSketch(w, s.TrialSeconds)
	appendSketch(w, s.TrainEpochSeconds)
	appendSketch(w, s.EvalSeconds)
}

func decodeStats(p []byte) (WorkerSeries, error) {
	r := wireReader{b: p}
	var s WorkerSeries
	s.Trials = r.uvarint()
	s.Epochs = r.uvarint()
	readSketch(&r, &s.TrialSeconds)
	readSketch(&r, &s.TrainEpochSeconds)
	readSketch(&r, &s.EvalSeconds)
	return s, r.finish()
}
