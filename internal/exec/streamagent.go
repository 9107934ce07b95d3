package exec

// Worker-side half of the work protocol. One stream session is one
// registration: the agent dials the daemon, upgrades POST /v1/stream,
// and then
//
//   - a *reader* goroutine dispatches daemon frames — Grants feed a work
//     channel, Directives and Acks are routed to the slot waiting on
//     them;
//   - `capacity` *slot* goroutines compute trial bodies (runBody, on the
//     agent's cached trainers);
//   - a *heartbeat* goroutine ticks Stats frames, the worker's telemetry
//     and its liveness in one.
//
// A torn connection ends the session: Agent.Run reconnects under a new
// worker id, and the daemon has already requeued whatever this
// registration held.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// streamRPCTimeout bounds how long a slot waits for the daemon's answer
// to an epoch report or a commit before treating the lease as lost.
const streamRPCTimeout = 15 * time.Second

// streamWaiter parks one slot goroutine on the daemon's reply to a
// specific (lease, attempt) — and, for directives, a specific epoch, so
// a stale directive from a previous attempt or a timed-out report can
// never be delivered to the wrong waiter.
type streamWaiter struct {
	attempt int
	epoch   int
	dir     chan EpochDirective
	ack     chan byte
}

// streamSession is one connection's lifetime.
type streamSession struct {
	a    *Agent
	conn net.Conn
	fw   *frameWriter

	mu      sync.Mutex
	waiters map[string]*streamWaiter // lease id -> the slot's parked RPC

	// stats is this session's cumulative telemetry, shipped as the Stats
	// frame every heartbeat is. Per-session (not per-agent) so the
	// daemon's per-registration delta baseline of zero is exact.
	stats *workerStats

	dead     chan struct{}
	deadOnce sync.Once
	deadErr  error
}

// kill ends the session once: records the cause, closes the connection
// (unblocking the reader and any in-flight write) and releases everyone
// parked on dead.
func (s *streamSession) kill(err error) {
	s.deadOnce.Do(func() {
		s.deadErr = err
		close(s.dead)
		s.conn.Close()
	})
}

// streamSession dials, handshakes and serves one session; the returned
// error is the cause of death (nil for a clean ctx cancellation).
func (a *Agent) streamSession(ctx context.Context) error {
	conn, br, err := a.dialStream(ctx)
	if err != nil {
		return err
	}
	s := &streamSession{
		a:       a,
		conn:    conn,
		fw:      &frameWriter{w: conn},
		waiters: make(map[string]*streamWaiter),
		stats:   a.newSessionStats(),
		dead:    make(chan struct{}),
	}
	defer s.kill(nil)

	// Handshake: magic + Hello out, Welcome back, all under a deadline.
	_ = conn.SetDeadline(time.Now().Add(streamHandshakeTimeout))
	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		return fmt.Errorf("exec: stream handshake: %w", err)
	}
	wb := getWirebuf()
	encodeHello(wb, a.cfg.Name, a.cfg.Capacity)
	err = s.fw.send(frameHello, wb.b)
	putWirebuf(wb)
	if err != nil {
		return fmt.Errorf("exec: stream handshake: %w", err)
	}
	var scratch []byte
	ft, p, err := readFrame(br, &scratch)
	if err != nil {
		return fmt.Errorf("exec: stream handshake: %w", err)
	}
	if ft != frameWelcome {
		return fmt.Errorf("exec: stream handshake: unexpected frame type %d", ft)
	}
	workerID, beatSeconds, err := decodeWelcome(p)
	if err != nil {
		return fmt.Errorf("exec: stream handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	a.cfg.Logf("worker: registered as %s with %s (capacity %d)", workerID, a.cfg.Server, a.cfg.Capacity)

	hb := time.Duration(beatSeconds * float64(time.Second))
	if hb <= 0 {
		hb = 2 * time.Second
	}
	// An idle worker's beats are all that renew the daemon's read
	// deadline, so a cadence slower than advertised would get it evicted
	// every horizon: only a faster one is honoured.
	if a.cfg.Heartbeat > 0 && a.cfg.Heartbeat < hb {
		hb = a.cfg.Heartbeat
	}

	// The daemon never grants beyond this registration's capacity, so a
	// capacity-sized buffer means the reader can never block on a Grant.
	work := make(chan Assignment, a.cfg.Capacity)

	go func() { // ctx watcher: a cancelled agent cuts the stream
		select {
		case <-ctx.Done():
			s.kill(nil)
		case <-s.dead:
		}
	}()
	go s.readLoop(br, scratch, work)
	go s.heartbeatLoop(hb)

	var wg sync.WaitGroup
	for i := 0; i < a.cfg.Capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-s.dead:
					return
				case asg := <-work:
					s.runAssignment(ctx, asg)
				}
			}
		}()
	}
	wg.Wait()
	<-s.dead
	return s.deadErr
}

// dialStream connects and upgrades POST /v1/stream. The stream speaks
// plain TCP after the upgrade, so only http:// servers are supported
// (matching every current deployment; a TLS wire would layer in here).
func (a *Agent) dialStream(ctx context.Context) (net.Conn, *bufio.Reader, error) {
	u, err := url.Parse(a.cfg.Server)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: server url: %w", err)
	}
	if u.Scheme != "http" {
		return nil, nil, fmt.Errorf("exec: the worker stream requires an http:// server url, got %q", a.cfg.Server)
	}
	host := u.Host
	if u.Port() == "" {
		host += ":80"
	}
	dctx, cancel := context.WithTimeout(ctx, streamHandshakeTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", host)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: dial %s: %w", host, err)
	}
	_ = conn.SetDeadline(time.Now().Add(streamHandshakeTimeout))
	auth := ""
	if a.cfg.Token != "" {
		auth = "Authorization: Bearer " + a.cfg.Token + "\r\n"
	}
	_, err = fmt.Fprintf(conn,
		"POST /v1/stream HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n%s\r\n",
		u.Host, streamUpgradeProto, auth)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("exec: stream upgrade: %w", err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("exec: stream upgrade: %w", err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusSwitchingProtocols:
	case http.StatusUnauthorized:
		conn.Close()
		return nil, nil, ErrBadToken
	case http.StatusUpgradeRequired:
		conn.Close()
		return nil, nil, fmt.Errorf("%w: the daemon speaks %q, this worker %q", errStreamVersion, resp.Header.Get("Upgrade"), streamUpgradeProto)
	default:
		conn.Close()
		return nil, nil, fmt.Errorf("exec: stream upgrade refused: %s", resp.Status)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// readLoop dispatches daemon frames until the connection dies.
func (s *streamSession) readLoop(br *bufio.Reader, scratch []byte, work chan Assignment) {
	for {
		ft, p, err := readFrame(br, &scratch)
		if err != nil {
			s.kill(err)
			return
		}
		switch ft {
		case frameGrant:
			asgs, err := decodeGrant(p)
			if err != nil {
				s.kill(err)
				return
			}
			for _, asg := range asgs {
				select {
				case work <- asg:
				case <-s.dead:
					return
				}
			}

		case frameDirective:
			leaseID, attempt, epoch, dir, err := decodeDirective(p)
			if err != nil {
				s.kill(err)
				return
			}
			s.mu.Lock()
			if w := s.waiters[string(leaseID)]; w != nil && w.dir != nil && w.attempt == attempt && w.epoch == epoch {
				select {
				case w.dir <- dir:
				default: // waiter already timed out; drop
				}
			}
			s.mu.Unlock()

		case frameAck:
			leaseID, attempt, code, err := decodeAck(p)
			if err != nil {
				s.kill(err)
				return
			}
			s.mu.Lock()
			if w := s.waiters[string(leaseID)]; w != nil && w.ack != nil && w.attempt == attempt {
				select {
				case w.ack <- code:
				default:
				}
			}
			s.mu.Unlock()

		default:
			s.kill(fmt.Errorf("%w: unexpected frame type %d", errFrameCorrupt, ft))
			return
		}
	}
}

// heartbeatLoop ticks the beat: each one is a Stats frame carrying the
// cumulative telemetry snapshot, which the daemon diffs against the
// previous one, so losing a frame only delays aggregation by a beat. A
// failed write means the connection is dead and the session ends.
func (s *streamSession) heartbeatLoop(hb time.Duration) {
	t := time.NewTicker(hb)
	defer t.Stop()
	for {
		select {
		case <-s.dead:
			return
		case <-t.C:
			wb := getWirebuf()
			encodeStats(wb, s.stats.series())
			err := s.fw.send(frameStats, wb.b)
			putWirebuf(wb)
			if err != nil {
				s.kill(err)
				return
			}
		}
	}
}

// park registers a waiter for the lease's next daemon reply; the
// returned func deregisters it.
func (s *streamSession) park(leaseID string, w *streamWaiter) func() {
	s.mu.Lock()
	s.waiters[leaseID] = w
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.waiters, leaseID)
		s.mu.Unlock()
	}
}

// runAssignment computes one leased trial body and commits the result.
// A lease the worker cannot finish or report is never left dangling:
// abandonment is committed to the daemon (which requeues the trial
// immediately), and if even that goes unacknowledged the session ends so
// the registration stops heartbeating and eviction requeues the lease.
func (s *streamSession) runAssignment(ctx context.Context, asg Assignment) {
	tr := s.a.trainerFor(asg.Trainer)
	revoked := false
	var obs trainer.EpochObserver
	if asg.StreamEpochs {
		obs = trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, st trainer.EpochStats) *params.SysConfig {
			if revoked {
				return nil
			}
			dir, ok := s.reportEpoch(asg, st)
			if !ok || dir.Revoked {
				// Lease void or daemon unreachable: the trainer cannot be
				// interrupted mid-trial, so finish the remaining epochs
				// on the current configuration and let the commit be
				// rejected. The authoritative attempt runs elsewhere.
				revoked = true
				return nil
			}
			return dir.Sys
		})
	}
	start := time.Now()
	res, err := runBody(tr, asg, obs)
	epochs := 0
	if res != nil {
		epochs = len(res.Epochs)
	}
	s.stats.observeTrial(time.Since(start).Seconds(), epochs)
	status, errMsg := completeOK, ""
	switch {
	case revoked:
		// The epoch stream tore (or the daemon revoked the lease): this
		// worker's copy is void, but the daemon must learn the trial
		// needs another worker NOW — a still-heartbeating worker would
		// otherwise hold the lease forever.
		s.a.cfg.Logf("worker: lease %s attempt %d abandoned mid-trial", asg.LeaseID, asg.Attempt)
		status, res = completeAbandoned, nil
	case err != nil:
		status, errMsg, res = completeError, err.Error(), nil
	}
	s.commit(ctx, asg, status, errMsg, res)
}

// reportEpoch streams one observation and waits for its directive; ok is
// false when the lease should be treated as void.
func (s *streamSession) reportEpoch(asg Assignment, st trainer.EpochStats) (EpochDirective, bool) {
	w := &streamWaiter{attempt: asg.Attempt, epoch: st.Epoch, dir: make(chan EpochDirective, 1)}
	unpark := s.park(asg.LeaseID, w)
	defer unpark()
	wb := getWirebuf()
	encodeEpochFrame(wb, asg.LeaseID, asg.Attempt, &st)
	err := s.fw.send(frameEpoch, wb.b)
	putWirebuf(wb)
	if err != nil {
		s.kill(err)
		return EpochDirective{}, false
	}
	select {
	case dir := <-w.dir:
		return dir, true
	case <-s.dead:
		return EpochDirective{}, false
	case <-time.After(streamRPCTimeout):
		// The pipelined controller must observe every epoch or its state
		// machine diverges; a trial that cannot stream is abandoned.
		return EpochDirective{}, false
	}
}

// commit sends the at-most-once result commit and waits for its Ack. An
// unacknowledged commit kills the session, so the registration stops
// heartbeating and eviction requeues the lease.
func (s *streamSession) commit(ctx context.Context, asg Assignment, status byte, errMsg string, res *trainer.Result) {
	w := &streamWaiter{attempt: asg.Attempt, ack: make(chan byte, 1)}
	unpark := s.park(asg.LeaseID, w)
	defer unpark()
	wb := getWirebuf()
	encodeComplete(wb, asg.LeaseID, asg.Attempt, status, errMsg, res)
	err := s.fw.send(frameComplete, wb.b)
	putWirebuf(wb)
	if err != nil {
		s.kill(err)
		return
	}
	select {
	case code := <-w.ack:
		switch code {
		case ackSuperseded:
			s.a.cfg.Logf("worker: lease %s attempt %d superseded; result discarded", asg.LeaseID, asg.Attempt)
		case ackUnknown:
			s.kill(errors.New("exec: worker no longer registered"))
		}
	case <-s.dead:
	case <-ctx.Done():
	case <-time.After(streamRPCTimeout):
		s.a.cfg.Logf("worker: lease %s: commit unacknowledged; ending session so eviction requeues it", asg.LeaseID)
		s.kill(errors.New("exec: commit ack timeout"))
	}
}
