package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sclp"
)

// JobState is the lifecycle of a partitioning job.
type JobState string

// Job states. A cache hit at submission time jumps straight to done.
// Cancelled is terminal: a queued job cancelled by DELETE (or an expired
// timeout_ms) never reaches a worker, and a running one unwinds its
// partitioner cooperatively, freeing the worker.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// PartitionFunc computes a partition; the production implementation wraps
// a parhip.Partitioner session configured from opts (the job's canonical
// options, plus its tracer when one was requested). prev, when non-nil,
// requests a migration-aware repartitioning run seeded with that previous
// partition.
// It must honor ctx (return promptly with ctx.Err() once cancelled) and
// may report live progress through onProgress (never nil; called from the
// partitioner's coordinating rank). Tests substitute counting/blocking
// wrappers.
type PartitionFunc func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option,
	prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error)

// job is the manager-internal record. Every field is guarded by the
// manager's mutex — except ctx/cancel, which are set once at submission
// and safe to use concurrently; workers take the mutex for state
// transitions and release it around the actual partitioning call.
type job struct {
	id        string
	graphID   string
	g         *graph.Graph
	k         int32
	opts      jobOptions        // canonical (see canonOptions)
	prev      *parhip.Partition // previous partition for repartition jobs
	prevJobID string            // source job of prev ("" for inline/none)
	repart    bool              // submitted with a previous partition
	key       string
	state     JobState
	cached    bool
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *parhip.Result

	// ctx bounds the job's run: it carries the optional submission
	// timeout_ms deadline and is cancelled by DELETE /v1/jobs/{id}. Nil
	// for jobs answered from cache at submission.
	ctx       context.Context
	cancel    context.CancelFunc
	timeoutMS int64
	expiry    *time.Timer // queued-expiry timer; stopped once terminal
	cancelReq bool        // DELETE seen (distinguishes cancel from timeout)
	progress  *parhip.ProgressEvent

	// tracer records per-rank spans when the job was submitted with
	// "trace": true and actually ran the partitioner (never allocated for
	// cache hits). Served by GET /v1/jobs/{id}/trace once terminal.
	tracer *parhip.Tracer

	// done is closed exactly once when the job reaches a terminal state
	// (done, failed or cancelled — every transition funnels through
	// terminateLocked). The live manager blocks on it to swap results in
	// without polling.
	done chan struct{}
}

// JobTiming is one completed job's timing record, exposed by /v1/stats.
type JobTiming struct {
	ID        string  `json:"id"`
	GraphID   string  `json:"graph_id"`
	K         int32   `json:"k"`
	Cached    bool    `json:"cached"`
	Failed    bool    `json:"failed,omitempty"`
	Cancelled bool    `json:"cancelled,omitempty"`
	QueueMS   float64 `json:"queue_ms"`
	RunMS     float64 `json:"run_ms"`
	Cut       int64   `json:"cut"`
}

// recentTimings bounds the per-job timing history kept for /v1/stats.
const recentTimings = 64

// maxRetainedJobs bounds the finished-job records kept for polling. Beyond
// it the oldest finished jobs are evicted (later polls get 404), keeping a
// long-running daemon's memory bounded; queued/running jobs are never
// evicted.
const maxRetainedJobs = 4096

// jobManager owns the queue, the bounded worker pool and the result cache,
// and aggregates the service counters reported by /v1/stats.
//
// The queue is a mutex/cond-guarded slice rather than a channel so that a
// job cancelled while queued can be removed on the spot: its slot is free
// for new submissions immediately, instead of a corpse occupying channel
// capacity until a worker happens to dequeue it.
type jobManager struct {
	partition PartitionFunc
	wg        sync.WaitGroup
	cache     *resultCache

	mu       sync.Mutex
	qcond    *sync.Cond // signalled on enqueue and close
	queue    []*job     // pending jobs, FIFO; guarded by mu
	queueCap int
	closed   bool            // guarded by mu
	nextID   int64           // guarded by mu
	jobs     map[string]*job // guarded by mu
	order    []string        // submission order, for listing; guarded by mu
	workers  int
	running  int // guarded by mu

	draining bool // guarded by mu: shutdown drain deadline expired

	submitted   int64 // guarded by mu
	completed   int64 // guarded by mu
	failed      int64 // guarded by mu
	cancelled   int64 // guarded by mu
	infeasible  int64 // guarded by mu
	cacheHits   int64 // guarded by mu
	cacheMisses int64 // guarded by mu

	coreRuns    int64         // guarded by mu
	coarsenTime time.Duration // guarded by mu
	initTime    time.Duration // guarded by mu
	refineTime  time.Duration // guarded by mu
	totalTime   time.Duration // guarded by mu
	comm        mpi.Stats     // guarded by mu
	par         sclp.ParStats // guarded by mu: label-propagation superstep totals
	cutSum      int64         // guarded by mu

	// queueWait/runDur are the /metrics latency histograms, observed by
	// runJob for every job that occupies a worker (cache hits at
	// submission never queue and are excluded).
	queueWait *obs.Histogram
	runDur    *obs.Histogram

	recent []JobTiming // ring, newest last; guarded by mu
}

func newJobManager(workers, queueSize, cacheSize int, fn PartitionFunc) *jobManager {
	m := &jobManager{
		partition: fn,
		queueCap:  queueSize,
		cache:     newResultCache(cacheSize),
		jobs:      make(map[string]*job),
		workers:   workers,
		queueWait: obs.NewHistogram("parhipd_job_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", obs.DurationBuckets),
		runDur: obs.NewHistogram("parhipd_job_run_seconds",
			"Wall-clock partitioner run time per job (cache hits excluded).", obs.DurationBuckets),
	}
	m.qcond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// close drains the queue (workers finish every accepted job) and waits for
// the pool to exit. Submissions after close fail. Unbounded: a stuck job
// holds close forever — daemons should prefer shutdown with a deadline.
func (m *jobManager) close() { _ = m.shutdown(context.Background()) }

// shutdown stops accepting submissions and drains the queue like close,
// but bounds the wait by ctx: once the deadline passes, every job still
// queued or running is cancelled cooperatively (the partitioner unwinds at
// its next superstep) and the pool is waited for. Returns nil on a full
// drain, ctx.Err() when the drain was cut short. Idempotent and safe to
// call concurrently.
func (m *jobManager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.qcond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline expired: abort the stragglers. Queued jobs are dropped
	// at dequeue (the ctx check in runJob), running ones unwind through the
	// partitioner's cooperative cancellation; both land in the cancelled
	// terminal state, never in the cache.
	m.mu.Lock()
	m.draining = true
	for _, id := range m.order {
		if j := m.jobs[id]; (j.state == StateQueued || j.state == StateRunning) && j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

var (
	errQueueFull = fmt.Errorf("job queue full")
	errClosed    = fmt.Errorf("server shutting down")
)

// jobKey canonicalizes the (graph, previous partition, options) triple into
// the cache key. The options half lists every field that influences the
// result, with defaults already applied (canonOptions), so e.g. eps=0 and
// eps=0.03 share a key. Repartition jobs carry the previous partition's
// content checksum: the same graph repartitioned from two different
// previous states is two different results.
func jobKey(fingerprint string, k int32, prev *parhip.Partition, o jobOptions) string {
	var b strings.Builder
	b.WriteString(fingerprint)
	b.WriteString("|k=")
	b.WriteString(strconv.FormatInt(int64(k), 10))
	b.WriteString("|prev=")
	if prev != nil {
		b.WriteString(prev.Checksum())
	} else {
		b.WriteString("none")
	}
	fmt.Fprintf(&b, "|mode=%s|class=%s|eps=%.17g|seed=%d|pes=%d|obj=%s|budget=%d",
		o.Mode, o.Class, o.Eps, o.Seed, o.PEs, o.Objective, o.EvoBudgetMS)
	return b.String()
}

// submit registers a job for sg. On a cache hit the job completes
// immediately without entering the queue; otherwise it is appended to the
// queue slice for the worker pool, or rejected with errQueueFull when the
// queue is at capacity. The whole decision runs under the manager mutex,
// making the capacity check atomic with the closed check and with
// registration (no partially registered jobs visible to concurrent
// submissions).
func (m *jobManager) submit(sg *storedGraph, k int32, opts jobOptions,
	prev *parhip.Partition, prevJobID string, timeoutMS int64, trace bool) (*job, error) {
	key := jobKey(sg.Fingerprint, k, prev, opts)
	now := time.Now()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errClosed
	}
	m.nextID++
	j := &job{
		id:        fmt.Sprintf("j%d", m.nextID),
		graphID:   sg.ID,
		g:         sg.g,
		k:         k,
		opts:      opts,
		prev:      prev,
		prevJobID: prevJobID,
		repart:    prev != nil,
		key:       key,
		state:     StateQueued,
		submitted: now,
		timeoutMS: timeoutMS,
		done:      make(chan struct{}),
	}

	if res, ok := m.cache.get(key); ok {
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.submitted++
		m.cacheHits++
		j.cached = true
		m.terminateLocked(j, StateDone, res, "", now)
		return j, nil
	}

	if len(m.queue) >= m.queueCap {
		m.nextID--
		return nil, errQueueFull
	}

	// Like TimeoutMS, the trace flag is deliberately not part of the cache
	// key: tracing must not change the result, so traced and untraced twins
	// share an entry. Allocated only past the cache-hit fast path — a job
	// answered from cache records no spans and has no trace.
	if trace {
		j.tracer = parhip.NewTracer(opts.PEs)
	}

	// The per-job context is rooted in Background, not the submission
	// request: the job outlives the HTTP exchange. The timeout clock
	// starts now, covering queue time as well as the run.
	ctx := context.Background()
	if timeoutMS > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	} else {
		j.ctx, j.cancel = context.WithCancel(ctx)
	}

	m.queue = append(m.queue, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.submitted++
	m.qcond.Signal()
	if timeoutMS > 0 {
		// Realize a queue-time expiry eagerly: without this, a timed-out
		// job would keep reporting "queued" and holding its queue slot
		// until a worker happened to pop it. terminateLocked stops the
		// timer, so it never outlives the job's queue and run.
		j.expiry = time.AfterFunc(time.Duration(timeoutMS)*time.Millisecond, func() { m.expireQueued(j) })
	}
	return j, nil
}

// expireQueued cancels j if its timeout fired while it was still waiting
// in the queue, freeing the slot immediately.
func (m *jobManager) expireQueued(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	m.unqueueLocked(j)
	m.terminateLocked(j, StateCancelled, nil, fmt.Sprintf("timeout after %dms while queued", j.timeoutMS), time.Now())
}

// unqueueLocked frees j's queue slot. The job may already be out of the
// slice if a worker popped it a moment ago; the dequeue-side state check
// drops it then. Callers hold m.mu.
//
//parhip:holds mu
func (m *jobManager) unqueueLocked(j *job) {
	if i := slices.Index(m.queue, j); i >= 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
	}
}

// cancelJob implements DELETE /v1/jobs/{id}. Queued jobs transition to
// cancelled immediately (the worker pool drops them at dequeue); running
// jobs get their context cancelled and transition once the partitioner
// unwinds. The bool reports whether the job existed; the error is non-nil
// when the job is already in a non-cancellable terminal state.
func (m *jobManager) cancelJob(id string) (*job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false, nil
	}
	switch j.state {
	case StateQueued:
		m.unqueueLocked(j)
		m.terminateLocked(j, StateCancelled, nil, "cancelled while queued", time.Now())
	case StateRunning:
		j.cancelReq = true
		j.cancel() // the worker observes ctx and finishes the transition
	case StateCancelled:
		// Idempotent.
	default:
		return j, true, fmt.Errorf("job %s already %s", id, j.state)
	}
	return j, true, nil
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.qcond.Wait()
		}
		if len(m.queue) == 0 {
			// Closed and drained: every accepted job has been finished.
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		m.runJob(j)
	}
}

func (m *jobManager) runJob(j *job) {
	start := time.Now()
	m.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while queued: already terminal, never occupies a
		// worker (the dequeue just drops the corpse).
		m.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		// timeout_ms expired — or the shutdown drain cut the queue short.
		msg := "timeout expired while queued: " + err.Error()
		if m.draining && !j.cancelReq {
			msg = "cancelled: server shutdown drained the queue"
		}
		m.terminateLocked(j, StateCancelled, nil, msg, time.Now())
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = start
	m.running++
	m.queueWait.Observe(start.Sub(j.submitted).Seconds())

	// Re-check the cache: a twin job submitted while this one was queued
	// may have populated it in the meantime.
	if res, ok := m.cache.get(j.key); ok {
		m.cacheHits++
		m.running--
		j.cached = true
		m.terminateLocked(j, StateDone, res, "", time.Now())
		m.mu.Unlock()
		return
	}
	m.cacheMisses++
	g, k, prev, ctx := j.g, j.k, j.prev, j.ctx
	opts := append(j.opts.sessionOptions(), parhip.WithTracer(j.tracer)) // nil: untraced
	m.mu.Unlock()

	onProgress := func(ev parhip.ProgressEvent) {
		m.mu.Lock()
		j.progress = &ev
		m.mu.Unlock()
	}
	res, err := m.partition(ctx, g, k, opts, prev, onProgress)
	end := time.Now()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	m.runDur.Observe(end.Sub(start).Seconds())
	// Cancellation and timeout are terminal "cancelled", not "failed" —
	// and a result that limped in despite a cancelled context is treated
	// as cancelled too: the cache must never hold output of a cut-short
	// run, and the client that cancelled must not observe a "done".
	if cause := j.ctx.Err(); cause != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		msg := "cancelled by client"
		if !j.cancelReq {
			msg = fmt.Sprintf("timeout after %dms", j.timeoutMS)
			if m.draining {
				msg = "cancelled: server shutdown drain deadline exceeded"
			}
		}
		if err != nil {
			msg += ": " + err.Error()
		}
		m.terminateLocked(j, StateCancelled, nil, msg, end)
		return
	}
	if err != nil {
		m.terminateLocked(j, StateFailed, nil, err.Error(), end)
		return
	}
	// Feasibility gate: the balance constraint is hard (§II-A), so a result
	// that is still infeasible after the core's rebalance stage is a failed
	// job, not a silently degraded done one. It is also never cached — a
	// later identical submission must not be served the bad partition.
	if !res.Feasible {
		m.infeasible++
		m.terminateLocked(j, StateFailed, nil, fmt.Sprintf(
			"result infeasible: heaviest block %d exceeds Lmax %d by %d (imbalance %.4f)",
			res.Stats.MaxBlockWeight, res.Stats.Lmax, res.Stats.WorstOverload(), res.Imbalance), end)
		return
	}
	m.cache.put(j.key, &res)
	m.coreRuns++
	m.coarsenTime += res.Stats.CoarsenTime
	m.initTime += res.Stats.InitTime
	m.refineTime += res.Stats.RefineTime
	m.totalTime += res.Stats.TotalTime
	m.comm.Add(res.Stats.Comm)
	m.par.Add(res.Stats.Par)
	m.cutSum += res.Cut
	m.terminateLocked(j, StateDone, &res, "", end)
}

// terminateLocked is the one way a job ends: it moves j to state (done
// with res, failed or cancelled with msg) at now. The graph and previous
// partition are dropped so a finished job no longer pins a (possibly
// deleted) graph in memory, and the job's context and queued-expiry timer
// are released. Callers hold m.mu.
//
//parhip:holds mu
func (m *jobManager) terminateLocked(j *job, state JobState, res *parhip.Result, msg string, now time.Time) {
	j.state, j.result, j.errMsg = state, res, msg
	j.g, j.prev = nil, nil
	if j.cancel != nil {
		j.cancel()
	}
	if j.expiry != nil {
		j.expiry.Stop()
	}
	if j.started.IsZero() {
		j.started = now
	}
	j.finished = now
	switch state {
	case StateDone:
		m.completed++
	case StateFailed:
		m.failed++
	case StateCancelled:
		m.cancelled++
	}
	m.pushTimingLocked(j)
}

//parhip:holds mu
func (m *jobManager) pushTimingLocked(j *job) {
	close(j.done) // terminal: wake waiters (exactly one transition per job)
	t := JobTiming{
		ID:        j.id,
		GraphID:   j.graphID,
		K:         j.k,
		Cached:    j.cached,
		Failed:    j.state == StateFailed,
		Cancelled: j.state == StateCancelled,
		QueueMS:   float64(j.started.Sub(j.submitted)) / float64(time.Millisecond),
		RunMS:     float64(j.finished.Sub(j.started)) / float64(time.Millisecond),
	}
	if j.result != nil {
		t.Cut = j.result.Cut
	}
	m.recent = append(m.recent, t)
	if len(m.recent) > recentTimings {
		m.recent = m.recent[len(m.recent)-recentTimings:]
	}
	m.evictFinishedLocked()
}

// evictFinishedLocked drops the oldest finished jobs once the retained set
// exceeds maxRetainedJobs. Callers hold m.mu.
//
//parhip:holds mu
func (m *jobManager) evictFinishedLocked() {
	excess := len(m.jobs) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && (j.state == StateDone || j.state == StateFailed || j.state == StateCancelled) {
			delete(m.jobs, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// graphInUse reports whether any queued or running job still references
// graph id. DELETE /v1/graphs/{id} refuses with 409 while this holds:
// jobs carry the *graph.Graph pointer, so the partitioner itself never
// races a vanished graph, but deleting the store entry mid-run would let
// the client re-upload a same-ID-looking graph and misattribute results.
func (m *jobManager) graphInUse(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.graphID == id && (j.state == StateQueued || j.state == StateRunning) {
			return true
		}
	}
	return false
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// resultPartition returns the partition computed by a done job, for use as
// the previous partition of a repartition submission.
func (m *jobManager) resultPartition(id string) (*parhip.Partition, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("no job %q", id)
	}
	if j.state != StateDone || j.result == nil || j.result.Partition == nil {
		return nil, fmt.Errorf("job %s is %s; only done jobs can seed a repartition", id, j.state)
	}
	return j.result.Partition, nil
}
