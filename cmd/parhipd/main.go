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
// cmd/loadgen drives a running daemon with synthetic traffic.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
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
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		workers   = flag.Int("workers", runtime.NumCPU(), "worker pool size")
		queueSize = flag.Int("queue", 0, "job queue capacity (0 = 4*workers, min 16)")
		cacheSize = flag.Int("cache", 128, "result cache capacity (entries)")
		maxGraphs = flag.Int("max-graphs", 256, "graph store capacity")
		quiet     = flag.Bool("quiet", false, "suppress per-request logging")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, wait this long for accepted jobs before cancelling them")
	)
	flag.Parse()

	var logHandler slog.Handler
	switch *logFormat {
	case "text":
		logHandler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown -log-format", "format", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(logHandler)

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
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr)
	}

	// Graceful shutdown: SIGINT/SIGTERM first stops the listener (new
	// connections refused, in-flight requests finish), then drains the job
	// queue with the -drain-timeout deadline — past it the remaining jobs
	// are cancelled cooperatively. Either way the daemon exits 0: a drained
	// or deadline-cut shutdown is an orderly one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("shutdown signal received; stopping listener")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	logger.Info("parhipd listening",
		"addr", *addr, "workers", *workers, "cache", *cacheSize, "graph_store", *maxGraphs)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		logger.Error("parhipd exiting", "err", err)
		os.Exit(1)
	}

	logger.Info("draining jobs", "timeout", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain deadline exceeded; remaining jobs cancelled")
	} else {
		logger.Info("all accepted jobs finished")
	}
	logger.Info("parhipd stopped")
}

// serveDebug mounts the pprof handlers on their own mux and listener. A
// fresh mux (not http.DefaultServeMux) keeps the debug surface explicit:
// exactly the five pprof endpoints, nothing registered by side effect.
func serveDebug(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof debug server listening", "addr", addr)
	dbg := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("pprof debug server exiting", "err", err)
	}
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
