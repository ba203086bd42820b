// Package server implements parhipd, a single-node graph-partitioning
// service wrapped around the parhip library: an HTTP API over an in-memory
// graph store, an asynchronous job manager with a bounded worker pool
// (default runtime.NumCPU workers), and an LRU result cache keyed by graph
// content fingerprint plus canonicalized options, so repeated requests for
// the same (graph, k, options) are answered without recomputation.
//
// API (all request/response bodies JSON unless noted):
//
//	POST   /v1/graphs            upload a graph (METIS text or binary format,
//	                             sniffed by magic; raw body) -> metadata
//	GET    /v1/graphs            list uploaded graphs
//	GET    /v1/graphs/{id}       one graph's metadata
//	DELETE /v1/graphs/{id}       drop a graph (409 while queued/running jobs
//	                             or a live overlay still reference it)
//	POST   /v1/graphs/{id}/live  promote the graph to a live graph: streamed
//	                             deltas, placement lookups and controller-
//	                             triggered continuous repartitioning
//	GET    /v1/graphs/{id}/live  live status: epoch, churn since last cut,
//	                             pending deltas, controller state
//	GET    /v1/graphs/{id}/live/trace  live-graph span trace (delta applies,
//	                             materializations, swaps; Chrome trace JSON)
//	POST   /v1/graphs/{id}/updates  apply one sequence-numbered delta batch
//	                             (idempotent on replay; 409 on a gap)
//	GET    /v1/graphs/{id}/placement/{v}  node v's block in the current
//	                             epoch, served lock-cheap during swaps
//	POST   /v1/jobs              submit a partition job -> job view (202;
//	                             200 when served from cache); the body may
//	                             set timeout_ms to bound queue+run time
//	GET    /v1/jobs              list jobs in submission order
//	GET    /v1/jobs/{id}         poll one job's state, timings and live
//	                             partitioner progress
//	DELETE /v1/jobs/{id}         cancel a queued or running job (200/202;
//	                             409 once done or failed)
//	GET    /v1/jobs/{id}/result  fetch the partition vector and metrics
//	GET    /v1/jobs/{id}/trace   download the Chrome trace-event JSON of a
//	                             job submitted with "trace": true (opens
//	                             in Perfetto with one track per rank)
//	GET    /v1/stats             queue depth, cache hit rate, per-job
//	                             timings, cumulative core statistics
//	GET    /metrics              Prometheus text exposition (counters,
//	                             gauges, latency histograms; non-JSON)
//	GET    /healthz              liveness probe
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/graph"
)

// maxUploadBytes bounds an uploaded graph body (64 MiB covers every graph
// this environment can partition in reasonable time).
const maxUploadBytes = 64 << 20

// Config parameterizes a Server. The zero value gets sensible defaults.
type Config struct {
	// Workers is the worker pool size (default runtime.NumCPU()).
	Workers int
	// QueueSize bounds the number of queued-but-not-running jobs; further
	// submissions are rejected with 429 (default 4*Workers, min 16).
	QueueSize int
	// CacheSize is the LRU result cache capacity in entries (default 128).
	CacheSize int
	// MaxGraphs bounds the in-memory graph store (default 256).
	MaxGraphs int
	// PartitionFn overrides the partitioning implementation (tests); the
	// default runs a parhip.Partitioner session.
	PartitionFn PartitionFunc
	// Logger receives structured service events (live-controller decisions,
	// epoch swaps). Nil discards them; request logging stays with the
	// daemon's middleware.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4 * c.Workers
		if c.QueueSize < 16 {
			c.QueueSize = 16
		}
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.PartitionFn == nil {
		c.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option,
			prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
			opts = append(opts, parhip.WithK(k), parhip.WithProgressFunc(onProgress))
			if prev != nil {
				opts = append(opts, parhip.WithPrevious(prev))
			}
			p, err := parhip.New(g, opts...)
			if err != nil {
				return parhip.Result{}, err
			}
			return p.Run(ctx)
		}
	}
	return c
}

// Server is the parhipd HTTP service. Create with New, mount Handler, and
// Close on shutdown (drains accepted jobs).
type Server struct {
	cfg   Config
	store *graphStore
	jobs  *jobManager
	live  *liveManager
	mux   *http.ServeMux
	start time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: newGraphStore(cfg.MaxGraphs),
		jobs:  newJobManager(cfg.Workers, cfg.QueueSize, cfg.CacheSize, cfg.PartitionFn),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.live = newLiveManager(s.jobs, cfg.Logger)
	s.mux.HandleFunc("POST /v1/graphs", s.handleUpload)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/graphs/{id}/live", s.handleLiveEnable)
	s.mux.HandleFunc("GET /v1/graphs/{id}/live", s.handleLiveStatus)
	s.mux.HandleFunc("GET /v1/graphs/{id}/live/trace", s.handleLiveTrace)
	s.mux.HandleFunc("POST /v1/graphs/{id}/updates", s.handleLiveUpdates)
	s.mux.HandleFunc("GET /v1/graphs/{id}/placement/{v}", s.handlePlacement)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s
}

// Handler returns the HTTP handler for the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the job queue and stops the worker pool, waiting however
// long the jobs in flight take. Daemons should prefer Shutdown.
func (s *Server) Close() {
	s.live.close()
	s.jobs.close()
}

// Shutdown gracefully stops the service: no new submissions are accepted,
// queued and running jobs are drained until ctx's deadline, and past it
// the stragglers are cancelled cooperatively (they land in the cancelled
// terminal state). Returns nil when every accepted job finished, ctx.Err()
// when the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.live.close()
	return s.jobs.shutdown(ctx)
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// --- graphs -----------------------------------------------------------

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, maxUploadBytes), 1<<16)
	prefix, _ := body.Peek(8)
	var (
		g   *graph.Graph
		err error
	)
	if graph.IsBinaryPrefix(prefix) {
		g, err = graph.ReadBinary(body)
	} else {
		g, err = graph.ReadMetis(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "graph exceeds %d bytes", maxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "parse graph: %v", err)
		return
	}
	sg, err := s.store.add(g, time.Now())
	if err != nil {
		writeError(w, http.StatusInsufficientStorage,
			"graph store full (%d graphs); DELETE /v1/graphs/{id} to free space", s.store.capacity())
		return
	}
	writeJSON(w, http.StatusCreated, sg)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.list())
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sg)
}

// handleDeleteGraph drops a stored graph. It refuses with 409 while the
// graph is still referenced: by a queued or running job (deleting the
// entry mid-run would let a re-upload reuse the slot and misattribute
// results) or by a live overlay (the overlay aliases the base CSR and
// continuously schedules jobs against it).
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.live.isLive(id) {
		writeError(w, http.StatusConflict,
			"graph %s is live; live graphs cannot be deleted", id)
		return
	}
	if s.jobs.graphInUse(id) {
		writeError(w, http.StatusConflict,
			"graph %s has queued or running jobs; cancel them or retry once they finish", id)
		return
	}
	if !s.store.delete(id) {
		writeError(w, http.StatusNotFound, "no graph %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- jobs -------------------------------------------------------------

// jobOptions is the wire form of a job's partitioner options. Zero values
// select the library defaults; a job carries the canonical
// (default-applied, see canonOptions) value, which is what the cache key
// hashes, what the partitioner is configured from and what job views echo.
type jobOptions struct {
	Mode        string  `json:"mode,omitempty"`      // fast | eco | minimal
	Class       string  `json:"class,omitempty"`     // social | mesh
	Eps         float64 `json:"eps,omitempty"`       // imbalance, default parhip.DefaultEps
	Seed        uint64  `json:"seed,omitempty"`      // default parhip.DefaultSeed
	PEs         int     `json:"pes,omitempty"`       // simulated ranks, default parhip.DefaultPEs
	Objective   string  `json:"objective,omitempty"` // cut | commvol | maxcommvol | maxquotdeg
	EvoBudgetMS int64   `json:"evo_budget_ms,omitempty"`
}

// The wire vocabulary of the enumerated options; the first name of each
// comment is the default an empty field canonicalizes to.
var (
	modeNames = map[string]parhip.Mode{ // fast
		"fast": parhip.Fast, "eco": parhip.Eco, "minimal": parhip.Minimal}
	classNames = map[string]parhip.GraphClass{ // social
		"social": parhip.Social, "mesh": parhip.Mesh}
	objectiveNames = map[string]parhip.Objective{ // cut
		"cut": parhip.MinimizeCut, "commvol": parhip.MinimizeCommVolume,
		"maxcommvol": parhip.MinimizeMaxCommVolume, "maxquotdeg": parhip.MinimizeMaxQuotientDegree}
)

type jobRequest struct {
	GraphID string     `json:"graph_id"`
	K       int32      `json:"k"`
	Options jobOptions `json:"options"`
	// PrevJobID makes the job a migration-aware repartition run seeded
	// with the partition computed by an earlier done job — the natural
	// flow for a drifting graph: upload the new graph revision, then
	// submit with prev_job_id of the previous revision's job. Mutually
	// exclusive with Prev.
	PrevJobID string `json:"prev_job_id,omitempty"`
	// Prev inlines a previous partition (one block per node of the target
	// graph) for clients that keep partitions outside the service.
	Prev []int32 `json:"prev,omitempty"`
	// TimeoutMS optionally bounds the job's total lifetime (queue + run);
	// on expiry the job is cancelled. It is intentionally not part of the
	// options: a timeout must not change the result cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace records per-rank spans during the run, downloadable as Chrome
	// trace-event JSON from GET /v1/jobs/{id}/trace once the job is
	// terminal. Like TimeoutMS it is not part of the options: tracing must
	// not change the result cache key, so a traced job can still be
	// answered from cache (in which case no trace exists).
	Trace bool `json:"trace,omitempty"`
}

// canonOptions validates the wire options and applies every default
// eagerly, so the cache key built from the result is canonical.
func canonOptions(o jobOptions) (jobOptions, error) {
	if o.Mode == "" {
		o.Mode = "fast"
	}
	if _, ok := modeNames[o.Mode]; !ok {
		return o, fmt.Errorf("unknown mode %q (want fast, eco or minimal)", o.Mode)
	}
	if o.Class == "" {
		o.Class = "social"
	}
	if _, ok := classNames[o.Class]; !ok {
		return o, fmt.Errorf("unknown class %q (want social or mesh)", o.Class)
	}
	if o.Objective == "" {
		o.Objective = "cut"
	}
	if _, ok := objectiveNames[o.Objective]; !ok {
		return o, fmt.Errorf("unknown objective %q", o.Objective)
	}
	if o.Eps < 0 {
		return o, fmt.Errorf("eps must be >= 0, got %g", o.Eps)
	}
	if o.Eps > parhip.MaxEps {
		return o, fmt.Errorf("eps must be <= %g, got %g", parhip.MaxEps, o.Eps)
	}
	if o.Eps == 0 {
		o.Eps = parhip.DefaultEps
	}
	if o.Seed == 0 {
		o.Seed = parhip.DefaultSeed
	}
	if o.PEs < 0 {
		return o, fmt.Errorf("pes must be >= 0, got %d", o.PEs)
	}
	if o.PEs > maxPEs {
		return o, fmt.Errorf("pes must be <= %d, got %d", maxPEs, o.PEs)
	}
	if o.PEs == 0 {
		o.PEs = parhip.DefaultPEs
	}
	if err := checkMS("evo_budget_ms", o.EvoBudgetMS); err != nil {
		return o, err
	}
	return o, nil
}

// maxPEs caps a job's ranks at the paper's largest run: a world of P ranks
// allocates P² mailboxes before any rank starts.
const maxPEs = 512

// maxMS is the largest millisecond count a time.Duration holds.
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// checkMS validates a millisecond field of a request: negative values and
// values past maxMS (which would wrap time.Duration negative) are errors.
func checkMS(field string, ms int64) error {
	if ms < 0 {
		return fmt.Errorf("%s must be >= 0, got %d", field, ms)
	}
	if ms > maxMS {
		return fmt.Errorf("%s must be <= %d, got %d", field, maxMS, ms)
	}
	return nil
}

// sessionOptions maps canonical job options onto the library's.
func (o jobOptions) sessionOptions() []parhip.Option {
	return []parhip.Option{
		parhip.WithMode(modeNames[o.Mode]),
		parhip.WithClass(classNames[o.Class]),
		parhip.WithObjective(objectiveNames[o.Objective]),
		parhip.WithEps(o.Eps),
		parhip.WithSeed(o.Seed),
		parhip.WithPEs(o.PEs),
		parhip.WithEvoTimeBudget(time.Duration(o.EvoBudgetMS) * time.Millisecond),
	}
}

// progressView is the wire form of the latest partitioner checkpoint of a
// running job (see parhip.ProgressEvent).
type progressView struct {
	Phase     string  `json:"phase"`
	Cycle     int     `json:"cycle"`
	Cycles    int     `json:"cycles"`
	Level     int     `json:"level"`
	N         int64   `json:"n"`
	M         int64   `json:"m"`
	Cut       int64   `json:"cut"`
	Imbalance float64 `json:"imbalance"`
	ElapsedMS float64 `json:"elapsed_ms"`
	CommMsgs  int64   `json:"comm_msgs"`
	CommBytes int64   `json:"comm_bytes"`
}

// jobView is the wire form of a job's state.
type jobView struct {
	ID      string     `json:"id"`
	GraphID string     `json:"graph_id"`
	K       int32      `json:"k"`
	Options jobOptions `json:"options"`
	// Repartition reports that the job was submitted with a previous
	// partition (PrevJobID names its source job when it came from one).
	Repartition bool          `json:"repartition,omitempty"`
	PrevJobID   string        `json:"prev_job_id,omitempty"`
	TimeoutMS   int64         `json:"timeout_ms,omitempty"`
	State       JobState      `json:"state"`
	Cached      bool          `json:"cached"`
	Error       string        `json:"error,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	QueueMS     float64       `json:"queue_ms,omitempty"`
	RunMS       float64       `json:"run_ms,omitempty"`
	Progress    *progressView `json:"progress,omitempty"`
	Cut         *int64        `json:"cut,omitempty"`
	Imbalance   *float64      `json:"imbalance,omitempty"`
	Feasible    *bool         `json:"feasible,omitempty"`
}

// viewLocked snapshots j; callers hold the manager mutex.
func viewLocked(j *job) jobView {
	v := jobView{
		ID:          j.id,
		GraphID:     j.graphID,
		K:           j.k,
		Options:     j.opts,
		Repartition: j.repart,
		PrevJobID:   j.prevJobID,
		TimeoutMS:   j.timeoutMS,
		State:       j.state,
		Cached:      j.cached,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
	}
	if j.progress != nil {
		ev := *j.progress
		v.Progress = &progressView{
			Phase:     string(ev.Phase),
			Cycle:     ev.Cycle,
			Cycles:    ev.Cycles,
			Level:     ev.Level,
			N:         ev.N,
			M:         ev.M,
			Cut:       ev.Cut,
			Imbalance: ev.Imbalance,
			ElapsedMS: float64(ev.Elapsed) / float64(time.Millisecond),
			CommMsgs:  ev.CommMsgs,
			CommBytes: ev.CommBytes,
		}
	}
	if !j.started.IsZero() {
		v.QueueMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	if j.state == StateDone && j.result != nil {
		cut, imb, feas := j.result.Cut, j.result.Imbalance, j.result.Feasible
		v.Cut, v.Imbalance, v.Feasible = &cut, &imb, &feas
	}
	return v
}

// resolveTarget is the validation POST /v1/jobs and POST
// /v1/graphs/{id}/live share: k >= 1, the graph exists, k <= its node count
// and the options are valid. It returns the graph and the canonical
// options, or writes the error response and returns false.
func (s *Server) resolveTarget(w http.ResponseWriter, graphID string, k int32, o jobOptions) (*storedGraph, jobOptions, bool) {
	if k < 1 {
		writeError(w, http.StatusBadRequest, "k must be >= 1, got %d", k)
		return nil, o, false
	}
	sg, ok := s.store.get(graphID)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", graphID)
		return nil, o, false
	}
	if k > sg.N {
		writeError(w, http.StatusBadRequest, "k = %d exceeds graph %s's %d nodes", k, sg.ID, sg.N)
		return nil, o, false
	}
	opts, err := canonOptions(o)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid options: %v", err)
		return nil, o, false
	}
	return sg, opts, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode job request: %v", err)
		return
	}
	sg, opts, ok := s.resolveTarget(w, req.GraphID, req.K, req.Options)
	if !ok {
		return
	}
	err := checkMS("timeout_ms", req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var prev *parhip.Partition
	switch {
	case req.PrevJobID != "" && req.Prev != nil:
		writeError(w, http.StatusBadRequest, "prev_job_id and prev are mutually exclusive")
		return
	case req.PrevJobID != "":
		prev, err = s.jobs.resultPartition(req.PrevJobID)
		if err != nil {
			writeError(w, http.StatusBadRequest, "prev_job_id: %v", err)
			return
		}
	case req.Prev != nil:
		prev, err = parhip.NewPartition(sg.g, req.Prev, req.K, opts.Eps)
		if err != nil {
			writeError(w, http.StatusBadRequest, "prev: %v", err)
			return
		}
	}
	if prev != nil {
		// Repartitioning across graph revisions is the point, so the prev
		// job may reference a different (older) graph — but the node set
		// and block count must line up with this request.
		if prev.NumNodes() != sg.N {
			writeError(w, http.StatusBadRequest,
				"previous partition has %d nodes, graph %s has %d", prev.NumNodes(), sg.ID, sg.N)
			return
		}
		if prev.K() != req.K {
			writeError(w, http.StatusBadRequest,
				"previous partition has k=%d, job requests k=%d", prev.K(), req.K)
			return
		}
	}
	j, err := s.jobs.submit(sg, req.K, opts, prev, req.PrevJobID, req.TimeoutMS, req.Trace)
	switch {
	case errors.Is(err, errQueueFull):
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued)", s.cfg.QueueSize)
		return
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "submit: %v", err)
		return
	}
	s.jobs.mu.Lock()
	v := viewLocked(j)
	s.jobs.mu.Unlock()
	code := http.StatusAccepted
	if v.State == StateDone {
		code = http.StatusOK // answered from cache without queueing
	}
	writeJSON(w, code, v)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.jobs.mu.Lock()
	out := make([]jobView, 0, len(s.jobs.order))
	for _, id := range s.jobs.order {
		if j, ok := s.jobs.jobs[id]; ok {
			out = append(out, viewLocked(j))
		}
	}
	s.jobs.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.jobs.mu.Lock()
	v := viewLocked(j)
	s.jobs.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleCancelJob cancels a queued or running job. Responses: 200 with the
// job view when the job is already terminal-cancelled (queued jobs land
// here immediately; repeated DELETEs are idempotent), 202 while a running
// job's partitioner is still unwinding (poll GET /v1/jobs/{id} until state
// is "cancelled"), 404 for unknown jobs and 409 for jobs that finished
// first.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok, err := s.jobs.cancelJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.jobs.mu.Lock()
	v := viewLocked(j)
	s.jobs.mu.Unlock()
	code := http.StatusOK
	if v.State == StateRunning {
		code = http.StatusAccepted // cancellation requested, still unwinding
	}
	writeJSON(w, code, v)
}

// resultView is the wire form of a finished job's partition. Repartition
// jobs additionally expose migration statistics against the previous
// partition they were seeded with.
type resultView struct {
	JobID       string  `json:"job_id"`
	GraphID     string  `json:"graph_id"`
	K           int32   `json:"k"`
	Cached      bool    `json:"cached"`
	Cut         int64   `json:"cut"`
	Imbalance   float64 `json:"imbalance"`
	Feasible    bool    `json:"feasible"`
	Repartition bool    `json:"repartition,omitempty"`
	// MigratedNodes/MigrationVolume report how many nodes a repartition
	// result moved off their previous block and their total node weight.
	MigratedNodes   int64   `json:"migrated_nodes,omitempty"`
	MigrationVolume int64   `json:"migration_volume,omitempty"`
	Part            []int32 `json:"part"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.jobs.mu.Lock()
	state, errMsg, cached, repart, res := j.state, j.errMsg, j.cached, j.repart, j.result
	s.jobs.mu.Unlock()
	switch state {
	case StateFailed:
		writeError(w, http.StatusUnprocessableEntity, "job failed: %s", errMsg)
	case StateCancelled:
		writeError(w, http.StatusGone, "job cancelled: %s", errMsg)
	case StateDone:
		v := resultView{
			JobID:       j.id,
			GraphID:     j.graphID,
			K:           j.k,
			Cached:      cached,
			Cut:         res.Cut,
			Imbalance:   res.Imbalance,
			Feasible:    res.Feasible,
			Repartition: repart,
			Part:        partSlice(res),
		}
		if repart {
			v.MigratedNodes = res.Stats.MigratedNodes
			v.MigrationVolume = res.Stats.MigrationVolume
		}
		writeJSON(w, http.StatusOK, v)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s", j.id, state, j.id)
	}
}

// handleTrace serves the recorded span trace of a job submitted with
// "trace": true as Chrome trace-event JSON (one track per simulated rank;
// open in Perfetto or chrome://tracing). 404 when the job is unknown or
// was not submitted with the trace flag, 409 while it is still queued or
// running (the trace is complete only once the job is terminal), and 409
// when the job was answered from the result cache — a cache hit never ran
// the partitioner, so there is nothing to download.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	s.jobs.mu.Lock()
	state, cached, tracer := j.state, j.cached, j.tracer
	s.jobs.mu.Unlock()
	if tracer == nil {
		if cached {
			writeError(w, http.StatusConflict,
				"job %s was answered from cache; no trace was recorded", j.id)
			return
		}
		writeError(w, http.StatusNotFound,
			"job %s was not submitted with \"trace\": true", j.id)
		return
	}
	switch state {
	case StateDone, StateFailed, StateCancelled:
		// Terminal: the simulated ranks have unwound, the span set is
		// final. A failed or cancelled job still serves its partial trace —
		// often exactly the spans needed to see where it died.
	default:
		writeError(w, http.StatusConflict,
			"job %s is %s; the trace is available once the job is terminal", j.id, state)
		return
	}
	if cached {
		// Raced a twin: this job queued, but the worker-side cache re-check
		// answered it before the partitioner ran. The tracer exists but is
		// empty, which would mislead more than a clean refusal.
		writeError(w, http.StatusConflict,
			"job %s was answered from cache; no trace was recorded", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+"-trace.json"))
	_ = tracer.WriteJSON(w)
}

// partSlice is the wire-form assignment array of a result (the JSON API
// speaks raw blocks).
func partSlice(res *parhip.Result) []int32 {
	if res == nil || res.Partition == nil {
		return nil
	}
	part := make([]int32, res.Partition.NumNodes())
	for v := range part {
		part[v] = res.Partition.Block(int32(v))
	}
	return part
}

// --- stats ------------------------------------------------------------

// StatsView is the /v1/stats payload.
type StatsView struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Running       int     `json:"running"`

	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		// Cancelled counts jobs that reached the cancelled terminal state,
		// whether by DELETE /v1/jobs/{id} or an expired timeout_ms.
		Cancelled int64 `json:"cancelled"`
		// InfeasibleResults counts jobs failed by the feasibility gate:
		// the partitioner returned a result violating the hard balance
		// bound even after rebalancing. Always <= Failed.
		InfeasibleResults int64 `json:"infeasible_results"`
	} `json:"jobs"`

	Cache struct {
		Size     int     `json:"size"`
		Capacity int     `json:"capacity"`
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRate  float64 `json:"hit_rate"`
	} `json:"cache"`

	Graphs struct {
		Count    int `json:"count"`
		Capacity int `json:"capacity"`
	} `json:"graphs"`

	// Core aggregates parhip/core statistics over every job that actually
	// ran the partitioner (cache hits excluded).
	Core struct {
		Runs      int64   `json:"runs"`
		CoarsenMS float64 `json:"coarsen_ms"`
		InitMS    float64 `json:"init_ms"`
		RefineMS  float64 `json:"refine_ms"`
		TotalMS   float64 `json:"total_ms"`
		// Communication totals across the simulated ranks of those runs.
		// comm_bytes is the wire volume (8 bytes per payload word); the
		// neighbor_* fields isolate the sparse halo-exchange share, and the
		// *_exchanges fields count all-to-all supersteps by class.
		MessagesSent      int64 `json:"messages_sent"`
		WordsSent         int64 `json:"words_sent"`
		CommBytes         int64 `json:"comm_bytes"`
		NeighborMessages  int64 `json:"neighbor_messages"`
		NeighborWords     int64 `json:"neighbor_words"`
		DenseExchanges    int64 `json:"dense_exchanges"`
		NeighborExchanges int64 `json:"neighbor_exchanges"`
		CumulativeCut     int64 `json:"cumulative_cut"`
		// Sclp is the label-propagation view of those runs (rank 0): the
		// superstep count and the wall time of their sweeps.
		Sclp struct {
			Supersteps int64   `json:"supersteps"`
			CommitMS   float64 `json:"commit_ms"`
			// Evaluated and Interior are exact work counts: node
			// evaluations, and how many of them were settled by the
			// neighbour scan alone.
			Evaluated int64 `json:"evaluated"`
			Interior  int64 `json:"interior"`
		} `json:"sclp"`
	} `json:"core"`

	// Live aggregates the live-graph subsystem: streamed deltas, controller
	// triggers, epoch swaps and the placement read path.
	Live struct {
		Graphs                int     `json:"graphs"`
		DeltasApplied         int64   `json:"deltas_applied"`
		Batches               int64   `json:"batches"`
		BatchesReplayed       int64   `json:"batches_replayed"`
		RepartitionsTriggered int64   `json:"repartitions_triggered"`
		Swaps                 int64   `json:"swaps"`
		PlacementLookups      int64   `json:"placement_lookups"`
		MaxChurnFraction      float64 `json:"max_churn_fraction"`
	} `json:"live"`

	// RecentJobs holds per-job timings for the last completed jobs,
	// newest last.
	RecentJobs []JobTiming `json:"recent_jobs"`
}

// Stats snapshots the service counters, served at /v1/stats and rendered
// by /metrics.
func (s *Server) Stats() StatsView {
	m := s.jobs
	var v StatsView
	v.UptimeSeconds = time.Since(s.start).Seconds()

	m.mu.Lock()
	v.QueueDepth = len(m.queue)
	v.QueueCapacity = m.queueCap
	v.Workers = m.workers
	v.Running = m.running
	v.Jobs.Submitted = m.submitted
	v.Jobs.Completed = m.completed
	v.Jobs.Failed = m.failed
	v.Jobs.Cancelled = m.cancelled
	v.Jobs.InfeasibleResults = m.infeasible
	v.Cache.Hits = m.cacheHits
	v.Cache.Misses = m.cacheMisses
	v.Core.Runs = m.coreRuns
	v.Core.CoarsenMS = float64(m.coarsenTime) / float64(time.Millisecond)
	v.Core.InitMS = float64(m.initTime) / float64(time.Millisecond)
	v.Core.RefineMS = float64(m.refineTime) / float64(time.Millisecond)
	v.Core.TotalMS = float64(m.totalTime) / float64(time.Millisecond)
	v.Core.MessagesSent = m.comm.MessagesSent
	v.Core.WordsSent = m.comm.WordsSent
	v.Core.CommBytes = m.comm.BytesSent()
	v.Core.NeighborMessages = m.comm.NeighborMessages
	v.Core.NeighborWords = m.comm.NeighborWords
	v.Core.DenseExchanges = m.comm.DenseExchanges
	v.Core.NeighborExchanges = m.comm.NeighborExchanges
	v.Core.CumulativeCut = m.cutSum
	v.Core.Sclp.Supersteps = m.par.Supersteps
	v.Core.Sclp.CommitMS = float64(m.par.CommitNS) / 1e6
	v.Core.Sclp.Evaluated = m.par.Evaluated
	v.Core.Sclp.Interior = m.par.Interior
	v.RecentJobs = append([]JobTiming(nil), m.recent...)
	m.mu.Unlock()

	if total := v.Cache.Hits + v.Cache.Misses; total > 0 {
		v.Cache.HitRate = float64(v.Cache.Hits) / float64(total)
	}
	v.Cache.Size = m.cache.len()
	v.Cache.Capacity = m.cache.capacity()
	v.Graphs.Count = s.store.len()
	v.Graphs.Capacity = s.store.capacity()

	lv := s.live
	graphs := lv.graphs()
	v.Live.Graphs = len(graphs)
	for _, ls := range graphs {
		v.Live.MaxChurnFraction = max(v.Live.MaxChurnFraction, ls.lg.Stats().ChurnFraction)
	}
	v.Live.DeltasApplied = lv.deltasApplied.Load()
	v.Live.Batches = lv.batches.Load()
	v.Live.BatchesReplayed = lv.batchesReplayed.Load()
	v.Live.RepartitionsTriggered = lv.triggered.Load()
	v.Live.Swaps = lv.swaps.Load()
	v.Live.PlacementLookups = lv.lookups.Load()
	return v
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
