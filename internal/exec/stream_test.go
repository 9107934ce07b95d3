package exec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pipetune/internal/trainer"
)

// TestStreamTokenAuth pins auth on the upgrade path: the 401 happens in
// plain HTTP, before any hijack. A request with the right token gets as
// far as the upgrade check (426: no Upgrade header), a request without
// it does not.
func TestStreamTokenAuth(t *testing.T) {
	r := NewRemote(RemoteConfig{Token: "s3cret"})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	for token, want := range map[string]int{"": http.StatusUnauthorized, "wrong": http.StatusUnauthorized, "s3cret": http.StatusUpgradeRequired} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST /v1/stream with token %q: %d, want %d", token, resp.StatusCode, want)
		}
	}
}

// TestStreamUpgradeRefusesOtherVersions pins the one version check: a
// stream upgrade naming any token but pipetune-stream/7 is answered 426
// Upgrade Required with the token the daemon speaks, before a hijack.
func TestStreamUpgradeRefusesOtherVersions(t *testing.T) {
	r := NewRemote(RemoteConfig{})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	for _, proto := range []string{"", "pipetune-stream/1", "pipetune-stream/6", "pipetune-stream/8", "websocket"} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if proto != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", proto)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != "pipetune-stream/7" {
			t.Fatalf("Upgrade %q: %d with Upgrade %q, want 426 with pipetune-stream/7", proto, resp.StatusCode, resp.Header.Get("Upgrade"))
		}
	}
	if fs := r.Fleet(); len(fs.Workers) != 0 {
		t.Fatalf("a refused upgrade registered a worker: %+v", fs.Workers)
	}
}

// TestStreamHandshakeFailureIsLogged: a connection that upgrades but
// then opens with the wrong magic is dropped with one log line naming
// its remote address and the cause, not silently.
func TestStreamHandshakeFailureIsLogged(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	r := NewRemote(RemoteConfig{Logf: func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	conn, br, err := NewAgent(AgentConfig{Server: srv.URL}).dialStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("NOTMAGIC")); err != nil {
		t.Fatal(err)
	}
	// The daemon closes the connection once it has logged the drop.
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("daemon kept a connection with a bad magic open")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], conn.LocalAddr().String()) || !strings.Contains(logged[0], `bad magic "NOTMAGIC"`) {
		t.Fatalf("handshake drop logged %q, want one line naming %s and the bad magic", logged, conn.LocalAddr())
	}
}

// handWorker is a hand-driven stream client: it handshakes like a real
// worker and then does exactly what the test tells it to.
type handWorker struct {
	conn    net.Conn
	br      *bufio.Reader
	fw      *frameWriter
	scratch []byte
	grants  [][]byte // Grant payloads that arrived ahead of a commit's Ack
}

func dialHandWorker(t *testing.T, serverURL, name string, capacity int) *handWorker {
	t.Helper()
	a := NewAgent(AgentConfig{Server: serverURL, Name: name, Capacity: capacity})
	conn, br, err := a.dialStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		t.Fatal(err)
	}
	w := &handWorker{conn: conn, br: br, fw: &frameWriter{w: conn}}
	wb := getWirebuf()
	encodeHello(wb, name, capacity)
	err = w.fw.send(frameHello, wb.b)
	putWirebuf(wb)
	if err != nil {
		t.Fatal(err)
	}
	w.expect(t, frameWelcome)
	return w
}

// expect reads the next frame and requires its type; the payload is
// valid until the next call.
func (w *handWorker) expect(t *testing.T, want byte) []byte {
	t.Helper()
	if want == frameGrant && len(w.grants) > 0 {
		p := w.grants[0]
		w.grants = w.grants[1:]
		return p
	}
	ft, p, err := readFrame(w.br, &w.scratch)
	if err != nil || ft != want {
		t.Fatalf("frame type %d err %v, want type %d", ft, err, want)
	}
	return p
}

// reportEpoch streams one epoch observation and returns its directive.
func (w *handWorker) reportEpoch(t *testing.T, asg Assignment, st trainer.EpochStats) EpochDirective {
	t.Helper()
	wb := getWirebuf()
	encodeEpochFrame(wb, asg.LeaseID, asg.Attempt, &st)
	err := w.fw.send(frameEpoch, wb.b)
	putWirebuf(wb)
	if err != nil {
		t.Fatal(err)
	}
	_, _, epoch, dir, err := decodeDirective(w.expect(t, frameDirective))
	if err != nil || epoch != st.Epoch || dir.Revoked {
		t.Fatalf("directive for epoch %d: epoch %d, %+v, err %v", st.Epoch, epoch, dir, err)
	}
	return dir
}

// commit sends a finished trial's result and requires the committed ack.
func (w *handWorker) commit(t *testing.T, asg Assignment, res *trainer.Result) {
	t.Helper()
	if code := w.commitAck(t, asg, res); code != ackCommitted {
		t.Fatalf("commit of lease %s: ack %d, want committed", asg.LeaseID, code)
	}
}

// commitAck sends a finished trial's result and returns the ack code.
func (w *handWorker) commitAck(t *testing.T, asg Assignment, res *trainer.Result) byte {
	t.Helper()
	wb := getWirebuf()
	encodeComplete(wb, asg.LeaseID, asg.Attempt, completeOK, "", res)
	err := w.fw.send(frameComplete, wb.b)
	putWirebuf(wb)
	if err != nil {
		t.Fatal(err)
	}
	// The commit frees the lease's slot, so the daemon's grant loop may
	// send the next Grant before this Ack; keep it for the next expect.
	ft, p, err := readFrame(w.br, &w.scratch)
	for err == nil && ft == frameGrant {
		w.grants = append(w.grants, append([]byte(nil), p...))
		ft, p, err = readFrame(w.br, &w.scratch)
	}
	if err != nil || ft != frameAck {
		t.Fatalf("frame type %d err %v, want type %d", ft, err, frameAck)
	}
	_, _, code, err := decodeAck(p)
	if err != nil {
		t.Fatalf("ack for lease %s: %v", asg.LeaseID, err)
	}
	return code
}

// TestStreamAckCodes pins the commit outcomes a worker reads: the first
// matching commit is committed; a stale attempt, a duplicate and a
// commit for a lease the daemon has forgotten are all superseded, and
// the session stays up through each of them.
func TestStreamAckCodes(t *testing.T) {
	r := NewRemote(RemoteConfig{HeartbeatInterval: 50 * time.Millisecond, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	w := dialHandWorker(t, srv.URL, "acks", 1)

	tr := smallTrainer()
	ran := runAsync(context.Background(), r, realTrials(tr, 1))
	asgs, err := decodeGrant(w.expect(t, frameGrant))
	if err != nil || len(asgs) != 1 {
		t.Fatalf("grant: %d assignments, err %v; want 1", len(asgs), err)
	}
	asg := asgs[0]
	res, err := runBody(tr, asg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := asg
	stale.Attempt++
	if code := w.commitAck(t, stale, res); code != ackSuperseded {
		t.Fatalf("stale-attempt commit: ack %d, want superseded", code)
	}
	w.commit(t, asg, res)
	if out := <-ran; out.errs[0] != nil || !reflect.DeepEqual(out.results[0], res) {
		t.Fatalf("committed trial: res=%v err=%v, want the worker's result", out.results[0], out.errs[0])
	}
	// The batch is collected, so the lease is forgotten.
	if code := w.commitAck(t, asg, res); code != ackSuperseded {
		t.Fatalf("duplicate commit of a forgotten lease: ack %d, want superseded", code)
	}
	unknown := asg
	unknown.LeaseID = "ls-999999"
	if code := w.commitAck(t, unknown, res); code != ackSuperseded {
		t.Fatalf("commit of a lease never issued: ack %d, want superseded", code)
	}
	if n := r.met.evictions.Value(); n != 0 {
		t.Fatalf("%v evictions, want 0: a superseded commit does not end the session", n)
	}
}

// TestStreamSilenceEvicts pins liveness at the stream: a worker that
// holds a lease and stops sending is evicted once MissedHeartbeats ×
// HeartbeatInterval has passed without a frame — not before — and its
// lease is granted to the next worker at attempt 2.
func TestStreamSilenceEvicts(t *testing.T) {
	const beat, missed = 50 * time.Millisecond, 3
	r := NewRemote(RemoteConfig{HeartbeatInterval: beat, MissedHeartbeats: missed, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	start := time.Now()
	silent := dialHandWorker(t, srv.URL, "silent", 1)
	runAsync(context.Background(), r, mkTrials(1)) // Close fails it at cleanup
	silent.expect(t, frameGrant)
	waitFor(t, r, "the silent worker's eviction", func() bool { return r.met.evictions.Value() == 1 })
	if waited := time.Since(start); waited < missed*beat {
		t.Fatalf("evicted after %v, before the %v horizon", waited, missed*beat)
	}

	next := dialHandWorker(t, srv.URL, "next", 1)
	asgs, err := decodeGrant(next.expect(t, frameGrant))
	if err != nil || len(asgs) != 1 || asgs[0].Attempt != 2 {
		t.Fatalf("grant after the eviction: %+v err %v, want the lease at attempt 2", asgs, err)
	}
}

// TestStreamBeatingWorkerSurvives is the other side: a worker that only
// heartbeats (sends its Stats frame), never anything else, stays
// registered for ten eviction horizons.
func TestStreamBeatingWorkerSurvives(t *testing.T) {
	const beat, missed = 20 * time.Millisecond, 5
	r := NewRemote(RemoteConfig{HeartbeatInterval: beat, MissedHeartbeats: missed, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	w := dialHandWorker(t, srv.URL, "beating", 1)
	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeStats(wb, WorkerSeries{})
	ticks := time.NewTicker(beat)
	defer ticks.Stop()
	for end := time.Now().Add(10 * missed * beat); time.Now().Before(end); {
		<-ticks.C
		if err := w.fw.send(frameStats, wb.b); err != nil {
			t.Fatal(err)
		}
	}
	if fs := r.Fleet(); len(fs.Workers) != 1 || fs.Workers[0].State != "active" {
		t.Fatalf("heartbeating worker after ten horizons: %+v", fs.Workers)
	}
}

// TestSlowBeatingAgentStaysRegistered is the regression test for a worker
// configured to beat slower than the daemon advertises: idle, only its
// heartbeats renew the daemon's read deadline, so a cadence beyond the
// eviction horizon got it evicted (and re-registered) every horizon. The
// agent clamps its cadence to the advertised interval, so a real Agent
// set to ten times the daemon's beat stays idle for ten horizons without
// one eviction.
func TestSlowBeatingAgentStaysRegistered(t *testing.T) {
	const beat, missed = 20 * time.Millisecond, 5
	r := NewRemote(RemoteConfig{HeartbeatInterval: beat, MissedHeartbeats: missed, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		<-done
	})
	agent := NewAgent(AgentConfig{Server: srv.URL, Name: "slow", Capacity: 1, Heartbeat: 10 * beat})
	go func() {
		defer close(done)
		_ = agent.Run(ctx)
	}()
	waitFor(t, r, "the agent's registration", func() bool { return len(r.workers) == 1 })

	<-time.After(10 * missed * beat)
	if n := r.met.evictions.Value(); n != 0 {
		t.Fatalf("idle agent beating at 10x the daemon's interval: %v evictions in ten horizons, want 0", n)
	}
	if fs := r.Fleet(); len(fs.Workers) != 1 || fs.Workers[0].State != "active" {
		t.Fatalf("slow-beating agent after ten horizons: %+v", fs.Workers)
	}
}

// TestCorruptFrameEvictsAndRequeues is the failure-path half of the
// codec contract (and what FuzzFrameDecode's invariant protects): a
// worker that sends a torn frame is evicted through the standard
// requeue path, and its lease completes on a healthy worker — the job
// never sees the corruption.
func TestCorruptFrameEvictsAndRequeues(t *testing.T) {
	// A huge missed-heartbeat budget: the corrupt frame, not the read
	// deadline, must be what evicts the misbehaving worker.
	r := NewRemote(RemoteConfig{HeartbeatInterval: 50 * time.Millisecond, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	w := dialHandWorker(t, srv.URL, "corrupt", 1)

	// Submit one trial; the corrupt worker is the only worker, so the
	// grant lands on it.
	tr := smallTrainer()
	ran := runAsync(context.Background(), r, realTrials(tr, 1))
	w.expect(t, frameGrant)

	// Send a frame whose CRC does not match its payload.
	bad := encodeFrameBytes(t, frameEpoch, func(w *wirebuf) { w.str("ls-000001") })
	bad[len(bad)-1] ^= 0xFF
	if _, err := w.conn.Write(bad); err != nil {
		t.Fatal(err)
	}

	// The daemon must evict the corrupt worker and requeue its lease...
	waitFor(t, r, "the corrupt worker's eviction", func() bool {
		return r.met.evictions.Value() == 1 && r.met.requeues.Value() >= 1
	})

	// ...and a healthy worker picks it up and completes the job.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := NewAgent(AgentConfig{Server: srv.URL, Name: "healthy", Capacity: 1})
	go func() { _ = healthy.Run(ctx) }()
	select {
	case out := <-ran:
		if out.errs[0] != nil {
			t.Fatalf("trial after corrupt-worker eviction: %v", out.errs[0])
		}
		want, err := smallTrainer().Run(realTrials(tr, 1)[0].Workload, realTrials(tr, 1)[0].Hyper, realTrials(tr, 1)[0].Sys, realTrials(tr, 1)[0].Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.results[0], want) {
			t.Fatal("post-eviction result diverges from a direct run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after corrupt-worker eviction")
	}
}

// TestStreamDrainFailsPendingCommitsInflight pins drain semantics: at
// drain start, pending leases fail instantly with ErrDraining and the
// in-flight lease gets its drain window to commit. The worker is
// hand-driven so the lease is held exactly across the drain — no real
// trial can finish early.
func TestStreamDrainFailsPendingCommitsInflight(t *testing.T) {
	r := NewRemote(RemoteConfig{HeartbeatInterval: 50 * time.Millisecond, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	w := dialHandWorker(t, srv.URL, "holds-one", 1)

	tr := smallTrainer()
	trials := realTrials(tr, 4) // 1 leased (capacity 1) + 3 pending
	ran := runAsync(context.Background(), r, trials)
	asgs, err := decodeGrant(w.expect(t, frameGrant))
	if err != nil || len(asgs) != 1 {
		t.Fatalf("grant: %d assignments, err %v; want 1", len(asgs), err)
	}
	asg := asgs[0]
	if fs := r.Fleet(); fs.LeasedTrials != 1 || fs.PendingTrials != 3 {
		t.Fatalf("before drain: %+v, want 1 leased + 3 pending", fs)
	}

	drained := make(chan struct{})
	go func() {
		r.Drain(30 * time.Second)
		close(drained)
	}()
	waitFor(t, r, "the drain to start", func() bool { return r.draining })

	res, err := runBody(tr, asg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.commit(t, asg, res) // in flight when the drain began: still commits
	<-drained

	out := <-ran
	for i := range trials {
		switch {
		case trials[i].Seed == asg.Seed:
			if out.errs[i] != nil || !reflect.DeepEqual(out.results[i], res) {
				t.Fatalf("in-flight trial %d: res=%v err=%v, want the committed result", i, out.results[i], out.errs[i])
			}
		case !errors.Is(out.errs[i], ErrDraining):
			t.Fatalf("pending trial %d: %v, want ErrDraining", i, out.errs[i])
		}
	}
}
