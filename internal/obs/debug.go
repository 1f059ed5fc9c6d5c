package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// publishOnce guards the expvar registration: expvar.Publish panics on
// duplicate names, and a process may start several debug servers over
// its lifetime (tests do).
var publishOnce sync.Once

// publishMetrics exposes the global registry under the expvar name
// "em_metrics"; it reads the registry at request time, so a server
// started before Enable still reports live values afterwards.
func publishMetrics() {
	publishOnce.Do(func() {
		expvar.Publish("em_metrics", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// NewDebugMux builds the standard debug mux — expvar metrics at
// /debug/vars, pprof under /debug/pprof/ — and registers the metrics
// expvar. It is how a binary that already runs its own HTTP server (the
// matching service) mounts the debug surface alongside its application
// routes instead of opening a second port.
func NewDebugMux() *http.ServeMux {
	publishMetrics()
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// drainTimeout bounds how long a debug server whose run context ended
// waits for in-flight scrapes before closing their connections.
const drainTimeout = 2 * time.Second

// DebugServer is a live operational endpoint serving expvar metrics at
// /debug/vars and the standard pprof handlers under /debug/pprof/.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed once the server has fully stopped
}

// StartDebugServer listens on addr (e.g. ":6060", or "127.0.0.1:0" for
// an ephemeral port) and serves expvar + pprof in a background goroutine
// until Close/Shutdown. The server is tied to the run's context: when
// ctx is cancelled (the run timed out or was interrupted) it drains
// in-flight requests for up to drainTimeout and then stops, so a
// cancelled run never leaks the listener. Close/Shutdown remain safe to
// call as well.
func StartDebugServer(ctx context.Context, addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewDebugMux(), ReadHeaderTimeout: 5 * time.Second}
	d := &DebugServer{ln: ln, srv: srv, done: make(chan struct{})}
	go func() {
		srv.Serve(ln) //nolint:errcheck // Serve always returns on Close/Shutdown
		close(d.done)
	}()
	go func() {
		select {
		case <-ctx.Done():
			d.Shutdown(drainTimeout) //nolint:errcheck // best-effort drain on cancellation
		case <-d.done:
		}
	}()
	return d, nil
}

// Addr returns the bound address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Shutdown stops accepting new connections and waits up to timeout for
// in-flight requests to finish before closing the rest. Safe on nil and
// idempotent with Close.
func (d *DebugServer) Shutdown(timeout time.Duration) error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		// The drain deadline passed with requests still in flight (a
		// hanging pprof profile, say): close their connections.
		return d.srv.Close()
	}
	return nil
}

// Close stops the server immediately. Safe on nil and idempotent with
// Shutdown.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	return d.srv.Close()
}
