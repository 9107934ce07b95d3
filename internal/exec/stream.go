package exec

// Daemon-side half of the work protocol. One POST /v1/stream per worker
// is upgraded (HTTP 101 + connection hijack) into a persistent framed
// stream:
//
//   - the *granter* goroutine pushes lease batches the moment the worker
//     has free slots and the queue has work, and one Grant frame carries
//     up to (capacity − inflight) assignments;
//   - the session *reader* dispatches the worker's frames: Epoch
//     observations go to the trial's observer (whose Directive is
//     written straight back, keeping pipelined mid-trial tuning at
//     stream latency), Complete commits results at-most-once and is
//     answered with an Ack, Stats (the worker's heartbeat) fold into
//     the fleet series.
//
// Backpressure is implicit in the lease accounting: the daemon never has
// more than `capacity` assignments outstanding per worker, so the worker
// needs no receive-window machinery — a Grant frame always fits the
// slots it already advertised.
//
// Liveness is the stream's: the reader's read deadline is
// MissedHeartbeats × HeartbeatInterval, renewed by every frame the worker
// sends (an idle worker still sends its Stats frame every beat). A
// silent worker, a dead connection, a torn frame and a CRC mismatch all
// end the session the same way — the reader returns and evicts the
// worker, requeueing its leases. An eviction from elsewhere (a failed
// grant write, Close) severs the connection so the session cannot linger
// half-dead.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"
)

// streamHandshakeTimeout bounds how long an upgraded connection may take
// to present the magic and Hello frame before the daemon drops it.
const streamHandshakeTimeout = 10 * time.Second

// handleStream upgrades POST /v1/stream into a framed stream.
// Token auth ran in the authed wrapper, over plain HTTP, before the
// upgrade — a worker with a bad token gets an ordinary 401, and one
// speaking another protocol version a 426 naming this one.
func (r *Remote) handleStream(w http.ResponseWriter, req *http.Request) {
	if got := req.Header.Get("Upgrade"); got != streamUpgradeProto {
		w.Header().Set("Upgrade", streamUpgradeProto)
		writeJSON(w, http.StatusUpgradeRequired, wireError{Error: fmt.Sprintf("exec: stream requires Upgrade: %s, got %q", streamUpgradeProto, got)})
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, wireError{Error: "exec: connection cannot be hijacked"})
		return
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, wireError{Error: fmt.Sprintf("exec: hijack: %v", err)})
		return
	}
	// The server's read/write deadlines (if any) outlive the hijack;
	// clear them — the stream sets its own, for the handshake and then
	// for liveness.
	_ = conn.SetDeadline(time.Time{})
	fmt.Fprintf(rw.Writer, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", streamUpgradeProto)
	if err := rw.Writer.Flush(); err != nil {
		conn.Close()
		return
	}
	r.serveStream(conn, rw.Reader)
}

// serveStream owns one worker's stream session from handshake to
// eviction.
func (r *Remote) serveStream(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()

	// Handshake: magic, then a Hello frame, under a deadline so a stuck
	// peer cannot park an anonymous connection forever.
	_ = conn.SetReadDeadline(time.Now().Add(streamHandshakeTimeout))
	var scratch []byte
	name, capacity, err := readHandshake(br, &scratch)
	if err != nil {
		r.cfg.Logf("exec: stream from %s dropped in the handshake: %v", conn.RemoteAddr(), err)
		return
	}

	workerID, err := r.register(name, capacity)
	if err != nil {
		return // closed: the dropped conn tells the worker to back off
	}
	if !r.bindStream(workerID, func() { conn.Close() }) {
		return
	}
	fw := &frameWriter{w: conn, txFrames: r.met.binTxFrames, txBytes: r.met.binTxBytes}
	wb := getWirebuf()
	encodeWelcome(wb, workerID, r.cfg.HeartbeatInterval.Seconds())
	err = fw.send(frameWelcome, wb.b)
	putWirebuf(wb)
	if err != nil {
		r.evictWorker(workerID, "welcome write failed")
		return
	}

	go r.grantLoop(fw, workerID)

	horizon := time.Duration(r.cfg.MissedHeartbeats) * r.cfg.HeartbeatInterval
	why := "stream closed"
	for {
		now := time.Now()
		r.heardFrom(workerID, now)
		_ = conn.SetReadDeadline(now.Add(horizon))
		ft, p, err := readFrame(br, &scratch)
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				why = fmt.Sprintf("silent for %d heartbeat intervals", r.cfg.MissedHeartbeats)
			case !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed):
				why = fmt.Sprintf("stream read: %v", err)
			}
			break
		}
		r.met.binRxFrames.Inc()
		r.met.binRxBytes.Add(uint64(frameHeaderLen + len(p)))
		if err := r.dispatchFrame(fw, workerID, ft, p); err != nil {
			why = err.Error()
			break
		}
	}
	// However the session ended — silence, clean close, transport death,
	// corrupt frame — the worker is gone as far as this registration is
	// concerned: evict it so its leases requeue now.
	r.evictWorker(workerID, why)
}

// readHandshake reads the magic and the Hello frame that open a stream.
func readHandshake(br *bufio.Reader, scratch *[]byte) (name string, capacity int, err error) {
	var magic [len(streamMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", 0, fmt.Errorf("magic: %w", err)
	}
	if string(magic[:]) != streamMagic {
		return "", 0, fmt.Errorf("bad magic %q", magic[:])
	}
	ft, p, err := readFrame(br, scratch)
	switch {
	case err != nil:
		return "", 0, err
	case ft != frameHello:
		return "", 0, fmt.Errorf("first frame has type %d, want hello", ft)
	}
	return decodeHello(p)
}

// dispatchFrame handles one worker frame; a returned error ends the
// session (and names the eviction reason).
func (r *Remote) dispatchFrame(fw *frameWriter, workerID string, ft byte, p []byte) error {
	switch ft {
	case frameStats:
		s, err := decodeStats(p)
		if err != nil {
			return fmt.Errorf("corrupt stats frame: %v", err)
		}
		if err := r.ingestWorkerSeries(workerID, s); err != nil {
			return fmt.Errorf("stats rejected: %v", err)
		}
		return nil

	case frameEpoch:
		leaseID, attempt, stats, err := decodeEpochFrame(p)
		if err != nil {
			return fmt.Errorf("corrupt epoch frame: %v", err)
		}
		dir, err := r.reportEpoch(workerID, leaseID, attempt, stats)
		if err != nil {
			return fmt.Errorf("epoch report rejected: %v", err)
		}
		wb := getWirebuf()
		encodeDirective(wb, leaseID, attempt, stats.Epoch, dir)
		err = fw.send(frameDirective, wb.b)
		putWirebuf(wb)
		if err != nil {
			return fmt.Errorf("directive write: %v", err)
		}
		return nil

	case frameComplete:
		leaseID, attempt, status, errMsg, res, err := decodeComplete(p)
		if err != nil {
			return fmt.Errorf("corrupt complete frame: %v", err)
		}
		code := ackCommitted
		switch err := r.complete(workerID, leaseID, attempt, res, errMsg, status == completeAbandoned); {
		case errors.Is(err, ErrUnknownWorker):
			code = ackUnknown
		case err != nil:
			code = ackSuperseded
		}
		wb := getWirebuf()
		encodeAck(wb, leaseID, attempt, code)
		err = fw.send(frameAck, wb.b)
		putWirebuf(wb)
		if err != nil {
			return fmt.Errorf("ack write: %v", err)
		}
		if code == ackUnknown {
			return errors.New("worker no longer registered")
		}
		return nil

	default:
		return fmt.Errorf("unexpected frame type %d", ft)
	}
}

// grantLoop pushes lease batches to one worker for as long as it stays
// registered. It parks on the backend's condition variable and wakes on
// every queue or slot change; each iteration claims everything the
// worker has slots for and ships it as a single Grant frame (encoded
// under the lock — trial fields are immutable while leased — written
// outside it).
func (r *Remote) grantLoop(fw *frameWriter, workerID string) {
	r.mu.Lock()
	for {
		w := r.workers[workerID]
		if w == nil || w.state != workerActive || r.closed {
			r.mu.Unlock()
			return
		}
		// A draining plane grants nothing more; the session stays up so
		// in-flight trials still commit.
		var claim []*lease
		if !r.draining {
			claim = r.claimLocked(w, w.capacity)
		}
		if len(claim) == 0 {
			r.cond.Wait()
			continue
		}
		wb := getWirebuf()
		wb.uvarint(uint64(len(claim)))
		for _, l := range claim {
			appendAssignment(wb, l.id, l.attempt, &l.trial)
		}
		r.mu.Unlock()
		err := fw.send(frameGrant, wb.b)
		putWirebuf(wb)
		if err != nil {
			// The worker never saw these assignments; eviction requeues
			// them for the rest of the fleet.
			r.evictWorker(workerID, "grant write failed")
			return
		}
		r.mu.Lock()
	}
}

// bindStream attaches a stream severance hook to a registered worker so
// eviction and Close can cut the connection. False when the worker is
// already gone (evicted between Register and bind, or the plane closed).
func (r *Remote) bindStream(workerID string, closeFn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[workerID]
	if w == nil || w.state != workerActive || r.closed {
		return false
	}
	w.closeStream = closeFn
	return true
}

// heardFrom stamps when the stream last heard from the worker, for the
// fleet surfaces' LastHeartbeat.
func (r *Remote) heardFrom(workerID string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.workers[workerID]; w != nil {
		w.lastBeat = now
	}
}

// evictWorker evicts by id — the stream session's exit path. Idempotent:
// a worker already evicted (Close, a failed grant write, a racing
// session error) is left as is.
func (r *Remote) evictWorker(workerID, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[workerID]
	if w == nil || w.state != workerActive {
		return
	}
	r.evictLocked(w, why)
}
