package exec

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchBatch sizes one benchmark iteration: a searcher-batch-shaped
// fleet of independent trial bodies.
const benchBatch = 8

// countingListener wraps every accepted connection so the benchmark can
// report bytes-on-the-wire per trial. Hijacked stream connections are
// counted too: net/http's Hijack hands back the accepted conn, which is
// our wrapper.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// BenchmarkExecBackends prices the execution plane: the same 8-trial
// batch of real lenet/mnist bodies (2 epochs, 96/48 corpus) computed on
// the local in-process pool versus remote fleets of 1, 2 and 4
// in-process agents. On a single-CPU box the remote rows measure
// protocol overhead (grant + epoch + commit traffic per trial). Each
// remote row also reports bytes-on-the-wire per trial, counted at the
// accepted-connection level so the upgrade and frame headers are
// included.
func BenchmarkExecBackends(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		benchBackend(b, NewLocal(smallTrainer()), nil)
	})
	for _, agents := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("remote-%dw", agents), func(b *testing.B) {
			r := NewRemote(RemoteConfig{HeartbeatInterval: 200 * time.Millisecond})
			defer r.Close()
			var wireBytes atomic.Int64
			srv := httptest.NewUnstartedServer(r.Handler())
			srv.Listener = countingListener{srv.Listener, &wireBytes}
			srv.Start()
			defer srv.Close()
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			defer func() { // stop the agents, then reap them
				cancel()
				wg.Wait()
			}()
			for i := 0; i < agents; i++ {
				agent := NewAgent(AgentConfig{Server: srv.URL, Capacity: 2})
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = agent.Run(ctx)
				}()
			}
			benchBackend(b, r, &wireBytes)
		})
	}
}

func benchBackend(b *testing.B, backend Backend, wireBytes *atomic.Int64) {
	trials := realTrials(smallTrainer(), benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	if wireBytes != nil {
		wireBytes.Store(0) // discount registration/handshake traffic
	}
	start := time.Now()
	for i := 0; i < b.N; i++ {
		results, errs := backend.Run(context.Background(), trials, 4)
		for j := range errs {
			if errs[j] != nil {
				b.Fatalf("trial %d: %v", j, errs[j])
			}
			if results[j] == nil {
				b.Fatal("nil result")
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*benchBatch)/elapsed, "trials/s")
	}
	if wireBytes != nil {
		b.ReportMetric(float64(wireBytes.Load())/float64(b.N*benchBatch), "wireB/trial")
	}
}

// BenchmarkCodec prices the zero-allocation claim directly: encode and
// decode of the two hot frame types (epoch observation and committed
// result) without any transport. Encode must not allocate at steady
// state (pooled buffers); decode allocates only the decoded result's own
// storage.
func BenchmarkCodec(b *testing.B) {
	asg := sampleAssignment()
	res := sampleResult(7, 3, asg.Sys)
	st := res.Epochs[1]

	b.Run("epoch-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := getWirebuf()
			encodeEpochFrame(w, asg.LeaseID, asg.Attempt, &st)
			putWirebuf(w)
		}
	})
	epochPayload := func() []byte {
		w := getWirebuf()
		defer putWirebuf(w)
		encodeEpochFrame(w, asg.LeaseID, asg.Attempt, &st)
		return append([]byte(nil), w.b...)
	}()
	b.Run("epoch-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := decodeEpochFrame(epochPayload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("result-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := getWirebuf()
			encodeComplete(w, asg.LeaseID, asg.Attempt, completeOK, "", res)
			putWirebuf(w)
		}
	})
	resultPayload := func() []byte {
		w := getWirebuf()
		defer putWirebuf(w)
		encodeComplete(w, asg.LeaseID, asg.Attempt, completeOK, "", res)
		return append([]byte(nil), w.b...)
	}()
	b.Run("result-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, _, _, err := decodeComplete(resultPayload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
