package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/trace"
)

// NewMux returns the telemetry HTTP mux over registry r, on which
// callers may mount additional routes (the serving layer adds /solve and
// /graphs):
//
//	/metrics        Prometheus text exposition of r
//	/healthz        liveness probe ("ok")
//	/trace          live JSON snapshot of the trace.Default span tree
//	/debug/pprof/*  the standard Go profiling endpoints
//
// The /trace snapshot uses the same schema as benchall -traceout (one
// tree, open spans export elapsed-so-far time), so the offline tooling
// reads it unchanged.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := trace.Default.Snapshot()
		if err := snap.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint. Create with ServeHandler; Close
// to shut down.
type Server struct {
	// Addr is the bound listen address (useful with ":0").
	Addr net.Addr
	srv  *http.Server
	ln   net.Listener
}

// ServeHandler binds addr (host:port; ":0" picks a free port), serves h
// — typically a NewMux, perhaps with extra routes mounted on it — on a
// background goroutine, and returns immediately. The caller owns the
// returned Server and should Close it on shutdown; the process exiting
// also tears it down, which is how the cmd wiring uses it.
func ServeHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s := &Server{Addr: ln.Addr(), srv: srv, ln: ln}
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close/Shutdown; nothing to surface
	return s, nil
}

// URL returns the http base URL of the bound address.
func (s *Server) URL() string { return "http://" + s.Addr.String() }

// Close stops the listener and closes open connections, dropping any
// requests still in flight. Daemon wiring should prefer Shutdown.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains gracefully: the listener stops accepting, idle
// connections close, and in-flight requests run to completion until ctx
// expires, at which point the remaining connections are closed hard (the
// error is then context.DeadlineExceeded). This is the SIGINT/SIGTERM path
// of symbreak's daemon mode.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}
