package server

// Live graphs: the service layer of internal/live. A stored graph can be
// promoted to a live graph (POST /v1/graphs/{id}/live), after which
// clients stream sequence-numbered delta batches into it, read placements
// lock-cheap from the current epoch's partition, and the controller
// auto-enqueues repartition jobs on the ordinary job queue whenever
// accumulated churn, imbalance or staleness crosses the configured policy
// thresholds. Finished jobs swap in atomically under the epoch counter;
// failed or cancelled runs return their churn to the counters so the
// drift is retried.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// maxDeltaBatch bounds one POST /v1/graphs/{id}/updates batch.
const maxDeltaBatch = 1 << 20

// liveGraph is one promoted graph: the mutable overlay graph plus the
// controller and job-lifecycle state. lg has its own internal locking and
// the placement read path never touches ls.mu — lookups stay cheap while
// a repartition materializes or swaps.
type liveGraph struct {
	id     string
	lg     *live.Graph
	tracer *obs.Tracer // nil unless enabled with "trace": true

	mu       sync.Mutex
	ctrl     *live.Controller // guarded by mu
	k        int32            // guarded by mu
	opts     jobOptions       // canonical; guarded by mu
	curJobID string           // guarded by mu: in-flight repartition job ("" idle)
	autoRuns int64            // guarded by mu: repartition jobs triggered (incl. initial)
	swaps    int64            // guarded by mu: completed epoch swaps
	lastErr  string           // guarded by mu: last failed/aborted run ("" none)
}

// liveManager owns the live-graph registry and the aggregate live metrics.
// The map mutex is held only for lookups and registration; all per-graph
// work runs under the liveGraph's own mutex or the live.Graph's internals.
type liveManager struct {
	jobs   *jobManager
	logger *slog.Logger

	mu   sync.RWMutex
	byID map[string]*liveGraph // guarded by mu

	stop     chan struct{} // closed once by close()
	stopOnce sync.Once

	// Aggregate metrics (atomics: touched on request paths).
	deltasApplied   atomic.Int64
	batches         atomic.Int64
	batchesReplayed atomic.Int64
	triggered       atomic.Int64
	swaps           atomic.Int64
	lookups         atomic.Int64
}

// sweepInterval paces the background policy sweep. Ingest-driven
// evaluation covers graphs that keep receiving batches; the sweep exists
// so the max-staleness trigger fires even when a graph goes quiet with
// deltas still pending.
const sweepInterval = 100 * time.Millisecond

func newLiveManager(jobs *jobManager, logger *slog.Logger) *liveManager {
	lm := &liveManager{
		jobs:   jobs,
		logger: logger,
		byID:   make(map[string]*liveGraph),
		stop:   make(chan struct{}),
	}
	go lm.sweep()
	return lm
}

// close stops the background sweep. Idempotent.
func (lm *liveManager) close() {
	lm.stopOnce.Do(func() { close(lm.stop) })
}

// sweep re-evaluates every live graph's policy on a clock, so triggers
// that depend on elapsed time (max staleness, debounce expiry) do not
// wait for the next delta batch to arrive.
func (lm *liveManager) sweep() {
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-lm.stop:
			return
		case <-t.C:
		}
		for _, ls := range lm.graphs() {
			lm.evaluate(ls)
		}
	}
}

// graphs snapshots the registered live graphs.
func (lm *liveManager) graphs() []*liveGraph {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	graphs := make([]*liveGraph, 0, len(lm.byID))
	for _, ls := range lm.byID {
		graphs = append(graphs, ls)
	}
	return graphs
}

func (lm *liveManager) get(id string) (*liveGraph, bool) {
	lm.mu.RLock()
	defer lm.mu.RUnlock()
	ls, ok := lm.byID[id]
	return ls, ok
}

// isLive reports whether graph id has been promoted; the graph-delete
// handler refuses to drop the base graph of a live overlay.
func (lm *liveManager) isLive(id string) bool {
	_, ok := lm.get(id)
	return ok
}

// enable promotes sg into a live graph and schedules the initial cold
// partition. Fails when the graph is already live.
func (lm *liveManager) enable(sg *storedGraph, k int32, opts jobOptions,
	policy live.Policy, trace bool) (*liveGraph, error) {
	ls := &liveGraph{
		id:   sg.ID,
		lg:   live.NewGraph(sg.g),
		ctrl: live.NewController(policy),
		k:    k,
		opts: opts,
	}
	if trace {
		ls.tracer = obs.NewTracer(1)
		ls.lg.SetTracer(ls.tracer)
	}
	lm.mu.Lock()
	if _, exists := lm.byID[sg.ID]; exists {
		lm.mu.Unlock()
		return nil, fmt.Errorf("graph %s is already live", sg.ID)
	}
	lm.byID[sg.ID] = ls
	lm.mu.Unlock()

	ls.mu.Lock()
	err := lm.startRepartitionLocked(ls, "initial")
	ls.mu.Unlock()
	if err != nil {
		lm.logger.Warn("live: initial partition not scheduled", "graph", ls.id, "err", err)
	}
	return ls, nil
}

// startRepartitionLocked freezes a snapshot and enqueues the repartition
// job, recording the trigger with the controller only once the job is
// actually queued. Callers hold ls.mu.
//
//parhip:holds mu
func (lm *liveManager) startRepartitionLocked(ls *liveGraph, reason string) error {
	snap, err := ls.lg.BeginRepartition(ls.k, ls.opts.Eps)
	if err != nil {
		return err
	}
	// The job enters the ordinary queue under a synthetic store entry
	// carrying the materialized snapshot: the cache key is built from the
	// snapshot's own fingerprint (plus the lifted previous partition), so
	// per-epoch results cache correctly and the job is visible in /v1/jobs
	// under the live graph's id. The snapshot is new, so its fingerprint
	// is noted on it here, as the store notes an upload's.
	fp := snap.G.Fingerprint()
	graph.NoteFingerprint(snap.G, fp)
	syn := &storedGraph{
		ID:          ls.id,
		Fingerprint: fp,
		N:           snap.G.NumNodes(),
		M:           snap.G.NumEdges(),
		g:           snap.G,
	}
	j, err := lm.jobs.submit(syn, ls.k, ls.opts, snap.Prev, "", 0, false)
	if err != nil {
		ls.lg.AbortRepartition()
		return fmt.Errorf("enqueue repartition: %w", err)
	}
	now := time.Now()
	ls.ctrl.MarkTriggered(now)
	ls.curJobID = j.id
	ls.autoRuns++
	lm.triggered.Add(1)
	lm.logger.Info("live: repartition triggered",
		"graph", ls.id, "job", j.id, "reason", reason, "seq", snap.Seq,
		"n", snap.G.NumNodes(), "m", snap.G.NumEdges(), "warm", snap.Prev != nil)
	go lm.waitAndSwap(ls, j)
	return nil
}

// waitAndSwap blocks until j is terminal, then swaps the result in (or
// returns the snapshot's churn on failure) and re-evaluates the
// controller — drift that accumulated during the run may already warrant
// the next run.
func (lm *liveManager) waitAndSwap(ls *liveGraph, j *job) {
	<-j.done
	p, err := lm.jobs.resultPartition(j.id)

	ls.mu.Lock()
	ls.curJobID = ""
	if err != nil {
		ls.lg.AbortRepartition()
		ls.lastErr = fmt.Sprintf("job %s: %v", j.id, err)
		ls.mu.Unlock()
		lm.logger.Warn("live: repartition did not complete", "graph", ls.id, "job", j.id, "err", err)
		return
	}
	if err := ls.lg.CompleteRepartition(p); err != nil {
		ls.lastErr = fmt.Sprintf("job %s: swap: %v", j.id, err)
		ls.mu.Unlock()
		lm.logger.Error("live: swap failed", "graph", ls.id, "job", j.id, "err", err)
		return
	}
	ls.lastErr = ""
	ls.swaps++
	lm.swaps.Add(1)
	pl := ls.lg.Placement()
	lm.logger.Info("live: partition swapped",
		"graph", ls.id, "job", j.id, "epoch", pl.Epoch, "cut", pl.Cut(), "feasible", pl.Feasible())
	lm.evaluateLocked(ls)
	ls.mu.Unlock()
}

// evaluate runs one controller decision for ls and starts a repartition
// when it triggers.
func (lm *liveManager) evaluate(ls *liveGraph) live.Decision {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return lm.evaluateLocked(ls)
}

//parhip:holds mu
func (lm *liveManager) evaluateLocked(ls *liveGraph) live.Decision {
	st := ls.lg.Stats()
	d := ls.ctrl.Decide(live.State{
		Now:           time.Now(),
		ChurnFraction: st.ChurnFraction,
		Imbalance:     st.Imbalance,
		PendingDeltas: st.PendingDeltas,
		InFlight:      st.InFlight,
		Epoch:         st.Epoch,
	})
	if d.Trigger {
		if err := lm.startRepartitionLocked(ls, d.Reason); err != nil {
			lm.logger.Warn("live: trigger not enqueued", "graph", ls.id, "reason", d.Reason, "err", err)
		}
	} else {
		lm.logger.Debug("live: controller decision", "graph", ls.id, "reason", d.Reason, "detail", d.Detail)
	}
	return d
}

// --- wire forms ---------------------------------------------------------

// livePolicyView is the wire form of live.Policy.
type livePolicyView struct {
	// ChurnFraction of 0 selects the 0.05 default; negative disables.
	ChurnFraction  float64 `json:"churn_fraction,omitempty"`
	MaxImbalance   float64 `json:"max_imbalance,omitempty"`
	MinIntervalMS  int64   `json:"min_interval_ms,omitempty"`
	MaxStalenessMS int64   `json:"max_staleness_ms,omitempty"`
}

func (v livePolicyView) toPolicy() (live.Policy, error) {
	if err := checkMS("min_interval_ms", v.MinIntervalMS); err != nil {
		return live.Policy{}, err
	}
	if err := checkMS("max_staleness_ms", v.MaxStalenessMS); err != nil {
		return live.Policy{}, err
	}
	if v.MaxImbalance < 0 {
		return live.Policy{}, fmt.Errorf("max_imbalance must be >= 0")
	}
	return live.Policy{
		ChurnFraction: v.ChurnFraction,
		MaxImbalance:  v.MaxImbalance,
		MinInterval:   time.Duration(v.MinIntervalMS) * time.Millisecond,
		MaxStaleness:  time.Duration(v.MaxStalenessMS) * time.Millisecond,
	}, nil
}

func policyView(p live.Policy) livePolicyView {
	return livePolicyView{
		ChurnFraction:  p.ChurnFraction,
		MaxImbalance:   p.MaxImbalance,
		MinIntervalMS:  p.MinInterval.Milliseconds(),
		MaxStalenessMS: p.MaxStaleness.Milliseconds(),
	}
}

type liveEnableRequest struct {
	K       int32          `json:"k"`
	Options jobOptions     `json:"options"`
	Policy  livePolicyView `json:"policy"`
	// Trace records live-graph spans (delta apply, materialize, swap),
	// downloadable from GET /v1/graphs/{id}/live/trace.
	Trace bool `json:"trace,omitempty"`
}

// deltaView is the wire form of one mutation.
type deltaView struct {
	Op string `json:"op"` // add_edge | remove_edge | add_node | set_node_weight
	U  int32  `json:"u,omitempty"`
	V  int32  `json:"v,omitempty"`
	W  int64  `json:"w,omitempty"`
}

func (d deltaView) toDelta() (live.Delta, error) {
	var op live.Op
	switch d.Op {
	case "add_edge":
		op = live.OpAddEdge
	case "remove_edge":
		op = live.OpRemoveEdge
	case "add_node":
		op = live.OpAddNode
	case "set_node_weight":
		op = live.OpSetNodeWeight
	default:
		return live.Delta{}, fmt.Errorf("unknown op %q", d.Op)
	}
	return live.Delta{Op: op, U: d.U, V: d.V, W: d.W}, nil
}

type updateRequest struct {
	Seq    int64       `json:"seq"`
	Deltas []deltaView `json:"deltas"`
}

type updateResponse struct {
	GraphID  string `json:"graph_id"`
	Seq      int64  `json:"seq"`
	Applied  int    `json:"applied"`
	Replayed bool   `json:"replayed,omitempty"`
	Epoch    int64  `json:"epoch"`
	// Decision echoes the controller's post-batch evaluation.
	Decision liveDecisionView `json:"decision"`
}

type liveDecisionView struct {
	Trigger bool   `json:"trigger"`
	Reason  string `json:"reason"`
	Detail  string `json:"detail,omitempty"`
}

// liveStatusView is the GET /v1/graphs/{id}/live payload.
type liveStatusView struct {
	GraphID string         `json:"graph_id"`
	K       int32          `json:"k"`
	Options jobOptions     `json:"options"`
	Policy  livePolicyView `json:"policy"`

	Epoch         int64   `json:"epoch"`
	Seq           int64   `json:"seq"`
	N             int32   `json:"n"`
	M             int64   `json:"m"`
	PendingDeltas int64   `json:"pending_deltas"`
	ChurnFraction float64 `json:"churn_fraction"`
	Imbalance     float64 `json:"imbalance"`

	InFlight         bool   `json:"in_flight"`
	RepartitionJobID string `json:"repartition_job_id,omitempty"`
	AutoRepartitions int64  `json:"auto_repartitions"`
	Swaps            int64  `json:"swaps"`
	LastError        string `json:"last_error,omitempty"`

	// Cut/Feasible describe the current epoch's partition on its snapshot
	// graph (absent before the first swap).
	Cut      *int64 `json:"cut,omitempty"`
	Feasible *bool  `json:"feasible,omitempty"`

	LastDecision liveDecisionView `json:"last_decision"`
}

func decisionView(d live.Decision) liveDecisionView {
	return liveDecisionView{Trigger: d.Trigger, Reason: d.Reason, Detail: d.Detail}
}

func (lm *liveManager) statusView(ls *liveGraph) liveStatusView {
	st := ls.lg.Stats()
	ls.mu.Lock()
	v := liveStatusView{
		GraphID:          ls.id,
		K:                ls.k,
		Options:          ls.opts,
		Policy:           policyView(ls.ctrl.Policy()),
		Epoch:            st.Epoch,
		Seq:              st.Seq,
		N:                st.N,
		M:                st.M,
		PendingDeltas:    st.PendingDeltas,
		ChurnFraction:    st.ChurnFraction,
		Imbalance:        st.Imbalance,
		InFlight:         st.InFlight,
		RepartitionJobID: ls.curJobID,
		AutoRepartitions: ls.autoRuns,
		Swaps:            ls.swaps,
		LastError:        ls.lastErr,
		LastDecision:     decisionView(ls.ctrl.LastDecision()),
	}
	ls.mu.Unlock()
	if pl := ls.lg.Placement(); pl != nil {
		cut, feas := pl.Cut(), pl.Feasible()
		v.Cut, v.Feasible = &cut, &feas
	}
	return v
}

// --- handlers -----------------------------------------------------------

// handleLiveEnable promotes a stored graph to a live graph and schedules
// its initial partition. 409 when already live, 404 for unknown graphs.
func (s *Server) handleLiveEnable(w http.ResponseWriter, r *http.Request) {
	var req liveEnableRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode live request: %v", err)
		return
	}
	sg, opts, ok := s.resolveTarget(w, r.PathValue("id"), req.K, req.Options)
	if !ok {
		return
	}
	policy, err := req.Policy.toPolicy()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid policy: %v", err)
		return
	}
	ls, err := s.live.enable(sg, req.K, opts, policy, req.Trace)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.live.statusView(ls))
}

// handleLiveStatus serves GET /v1/graphs/{id}/live.
func (s *Server) handleLiveStatus(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.live.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q is not live", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.live.statusView(ls))
}

// handleLiveTrace serves the live graph's span trace (delta applies,
// materializations, swaps) for graphs enabled with "trace": true.
func (s *Server) handleLiveTrace(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.live.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q is not live", r.PathValue("id"))
		return
	}
	if ls.tracer == nil {
		writeError(w, http.StatusNotFound, "graph %s was not enabled with \"trace\": true", ls.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = ls.tracer.WriteJSON(w)
}

// handleLiveUpdates applies one sequence-numbered delta batch and then
// lets the controller decide whether the accumulated drift warrants a
// repartition. Batch replays (seq at or below the last applied) are
// idempotent 200s; sequence gaps are 409s telling the client to resend; an
// invalid delta (an edge weight merged past MaxInt64 too) is a 400.
func (s *Server) handleLiveUpdates(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.live.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q is not live (POST /v1/graphs/{id}/live first)", r.PathValue("id"))
		return
	}
	var req updateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode update request: %v", err)
		return
	}
	if req.Seq < 1 {
		writeError(w, http.StatusBadRequest, "seq must be >= 1, got %d", req.Seq)
		return
	}
	if len(req.Deltas) > maxDeltaBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d deltas exceeds %d", len(req.Deltas), maxDeltaBatch)
		return
	}
	deltas := make([]live.Delta, len(req.Deltas))
	for i, dv := range req.Deltas {
		d, err := dv.toDelta()
		if err != nil {
			writeError(w, http.StatusBadRequest, "delta %d: %v", i, err)
			return
		}
		deltas[i] = d
	}
	// The batch and the decision on it are one step under ls.mu: a policy
	// sweep between the two would start the repartition this batch crossed
	// the threshold for, and the batch would report "in_flight".
	ls.mu.Lock()
	res, err := ls.lg.ApplyBatch(req.Seq, deltas)
	var d live.Decision
	if err == nil {
		d = s.live.evaluateLocked(ls)
	}
	ls.mu.Unlock()
	if err != nil {
		if errors.Is(err, live.ErrSequenceGap) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.live.batches.Add(1)
	if res.Replayed {
		s.live.batchesReplayed.Add(1)
	} else {
		s.live.deltasApplied.Add(int64(res.Applied))
	}
	resp := updateResponse{
		GraphID:  ls.id,
		Seq:      res.Seq,
		Applied:  res.Applied,
		Replayed: res.Replayed,
		Decision: decisionView(d),
	}
	if pl := ls.lg.Placement(); pl != nil {
		resp.Epoch = pl.Epoch
	}
	writeJSON(w, http.StatusOK, resp)
}

// placementView is the GET /v1/graphs/{id}/placement/{v} payload.
type placementView struct {
	GraphID string `json:"graph_id"`
	Node    int32  `json:"node"`
	Block   int32  `json:"block"`
	Epoch   int64  `json:"epoch"`
	// Provisional marks a node placed heuristically (added after the
	// epoch's snapshot) rather than by the partitioner.
	Provisional bool `json:"provisional,omitempty"`
}

// handlePlacement answers a single node's block from the current epoch's
// placement. The read path is one atomic pointer load plus array
// indexing — it stays this cheap during delta application and in-flight
// repartitions. 409 before the initial partition exists.
func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.live.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q is not live", r.PathValue("id"))
		return
	}
	v64, err := strconv.ParseInt(r.PathValue("v"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "node id %q: %v", r.PathValue("v"), err)
		return
	}
	s.live.lookups.Add(1)
	pl := ls.lg.Placement()
	if pl == nil {
		writeError(w, http.StatusConflict,
			"graph %s has no placement yet (initial partition in progress)", ls.id)
		return
	}
	b, ok := pl.Block(int32(v64))
	if !ok {
		writeError(w, http.StatusNotFound, "node %d not in placement (epoch %d answers %d nodes)",
			v64, pl.Epoch, pl.NumNodes())
		return
	}
	writeJSON(w, http.StatusOK, placementView{
		GraphID:     ls.id,
		Node:        int32(v64),
		Block:       b,
		Epoch:       pl.Epoch,
		Provisional: pl.Provisional(int32(v64)),
	})
}
