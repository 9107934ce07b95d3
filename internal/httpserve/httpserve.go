// Package httpserve is cmd/pipetuned's HTTP lifecycle: serve until the
// context is cancelled or SIGINT/SIGTERM arrives, run the application's
// drain, then drain in-flight requests through http.Server.Shutdown with
// a bounded timeout.
package httpserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultShutdownTimeout bounds the drain when the caller passes 0.
const DefaultShutdownTimeout = 5 * time.Second

// Serve runs srv on ln until ctx is done or SIGINT/SIGTERM arrives, then
// shuts the server down gracefully, waiting at most shutdownTimeout
// (0 = DefaultShutdownTimeout) for in-flight requests to finish. It
// returns nil on a clean shutdown, the serve error if the listener failed
// first, or the shutdown error if draining timed out.
//
// preShutdown hooks run after the stop signal but BEFORE the listener
// closes, each to completion. This is the slot for application drains
// that must finish before the HTTP drain starts: pipetuned cancels its
// jobs and drains the execution plane here, which is what ends the open
// SSE streams the HTTP drain would otherwise wait out —
// http.Server.RegisterOnShutdown cannot provide that, because Shutdown
// closes listeners before (and concurrently with) its hooks.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, shutdownTimeout time.Duration, preShutdown ...func()) error {
	if shutdownTimeout <= 0 {
		shutdownTimeout = DefaultShutdownTimeout
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	for _, hook := range preShutdown {
		hook()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	<-errc // Serve has returned http.ErrServerClosed by now
	return err
}

// Port extracts ":port" from a bound address for copy-pasteable startup
// hints: the raw string of a wildcard bind renders as "[::]:8080", which
// no curl example should suggest.
func Port(addr net.Addr) string {
	if tcp, ok := addr.(*net.TCPAddr); ok {
		return fmt.Sprintf(":%d", tcp.Port)
	}
	return ""
}

// ListenAndServe listens on srv.Addr (":http" when empty) and delegates
// to Serve. onListen, when non-nil, receives the bound address before
// serving starts — daemons use it to print the effective port when the
// user asked for ":0". preShutdown hooks run before the listener closes
// (see Serve).
func ListenAndServe(ctx context.Context, srv *http.Server, shutdownTimeout time.Duration, onListen func(addr net.Addr), preShutdown ...func()) error {
	addr := srv.Addr
	if addr == "" {
		addr = ":http"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return Serve(ctx, srv, ln, shutdownTimeout, preShutdown...)
}
