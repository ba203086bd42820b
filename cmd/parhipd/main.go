// Command parhipd runs the parhip partitioning service: an HTTP daemon
// with an in-memory graph store, an asynchronous job queue served by a
// bounded worker pool, and a fingerprint-keyed LRU result cache.
//
//	parhipd -addr :8090 -workers 8 -cache 256
//
// Observability: every request is logged structured (log/slog: request id,
// method, path, status, duration); Prometheus metrics are served at
// GET /metrics on the main listener; -debug-addr mounts the net/http/pprof
// profiling handlers on a second, normally loopback-only listener, kept off
// the API port so profiling endpoints are never exposed by default:
//
//	parhipd -addr :8090 -debug-addr localhost:8091 -log-format json
//	go tool pprof http://localhost:8091/debug/pprof/profile?seconds=10
//
// See internal/server for the API and README.md for a curl walkthrough;
// main_test.go drives the daemon end to end over real HTTP.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], nil)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "parhipd:", err)
		os.Exit(1)
	}
}

// run is the daemon: it serves the API until ctx is cancelled (or the
// listener fails), then shuts down in order. First the listener stops and
// in-flight HTTP requests finish; then the debug listener closes; only then
// is the job queue drained with the -drain-timeout deadline, past which the
// remaining jobs are cancelled cooperatively. A drained or deadline-cut
// shutdown is an orderly one and returns nil. ready, when non-nil, is
// called with the bound API address once connections are accepted, so
// -addr 127.0.0.1:0 is usable.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("parhipd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8090", "listen address")
		workers   = fs.Int("workers", runtime.NumCPU(), "worker pool size")
		queueSize = fs.Int("queue", 0, "job queue capacity (0 = 4*workers, min 16)")
		cacheSize = fs.Int("cache", 128, "result cache capacity (entries)")
		maxGraphs = fs.Int("max-graphs", 256, "graph store capacity")
		quiet     = fs.Bool("quiet", false, "suppress per-request logging")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "on SIGTERM, wait this long for accepted jobs before cancelling them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(logHandler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	var dbg *http.Server
	var dbgErr <-chan error
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		dbg = &http.Server{Handler: debugHandler(), ReadHeaderTimeout: 10 * time.Second}
		dbgErr = serve(dbg, dln)
		logger.Info("pprof debug server listening", "addr", dln.Addr().String())
	}

	srv := server.New(server.Config{
		Workers:   *workers,
		QueueSize: *queueSize,
		CacheSize: *cacheSize,
		MaxGraphs: *maxGraphs,
		Logger:    logger,
	})
	handler := srv.Handler()
	if !*quiet {
		handler = logRequests(logger, handler)
	}
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	apiErr := serve(httpSrv, ln)
	logger.Info("parhipd listening",
		"addr", ln.Addr().String(), "workers", *workers, "cache", *cacheSize, "graph_store", *maxGraphs)
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case <-ctx.Done():
		logger.Info("shutdown signal received; stopping listener")
	case err = <-apiErr:
		logger.Error("listener failed", "err", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("in-flight requests cut off", "err", err)
	}
	if err == nil {
		err = <-apiErr // Serve has returned http.ErrServerClosed
	}
	if dbg != nil {
		dbg.Close()
		if err := <-dbgErr; !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof debug server failed", "err", err)
		}
	}

	logger.Info("draining jobs", "timeout", *drain)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drain)
	defer cancelDrain()
	if srv.Shutdown(drainCtx) != nil {
		logger.Warn("drain deadline exceeded; remaining jobs cancelled")
	} else {
		logger.Info("all accepted jobs finished")
	}
	logger.Info("parhipd stopped")
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// serve runs s on ln in its own goroutine. The channel yields Serve's
// error once it returns: http.ErrServerClosed after Shutdown or Close.
func serve(s *http.Server, ln net.Listener) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	return errc
}

// debugHandler mounts the pprof handlers on their own mux. A fresh mux
// (not http.DefaultServeMux) keeps the debug surface explicit: exactly the
// five pprof endpoints, nothing registered by side effect.
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusRecorder wraps a ResponseWriter to capture the status code a
// handler wrote, so the access log can carry it (a handler that never
// calls WriteHeader implicitly wrote 200).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// reqSeq numbers requests for log correlation across a daemon's lifetime.
var reqSeq atomic.Int64

func logRequests(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		id := reqSeq.Add(1)
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", time.Since(start).Round(time.Microsecond),
		)
	})
}
