package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// genBig returns a graph large enough that an eco-mode run takes on the
// order of seconds — room to cancel it mid-flight.
func genBig() (*graph.Graph, []int32) {
	return gen.PlantedPartition(20000, 30, 16, 0.5, 1)
}

// blockingPartitionFn returns a PartitionFunc that parks until its context
// is cancelled (returning ctx.Err()) or the release channel is closed
// (returning a real partition). calls counts invocations.
func blockingPartitionFn(calls *atomic.Int64, release <-chan struct{}) PartitionFunc {
	return func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option,
		prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		calls.Add(1)
		select {
		case <-ctx.Done():
			return parhip.Result{}, ctx.Err()
		case <-release:
			return partitionNow(g, k, opts)
		}
	}
}

func (e *testEnv) awaitRunning(id string) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v jobView
		e.do("GET", "/v1/jobs/"+id, nil, &v)
		if v.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("job %s never started running (state %s)", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelRunningJob: DELETE on a running job cancels its context, the
// worker is freed, the job lands in the cancelled terminal state, and the
// result endpoint answers 410.
func TestCancelRunningJob(t *testing.T) {
	var calls atomic.Int64
	var once sync.Once
	release := make(chan struct{})
	cfg := Config{Workers: 1}
	cfg.PartitionFn = blockingPartitionFn(&calls, release)
	e := newEnv(t, cfg)
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	id := e.uploadMetis(testGraph(20))

	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"pes":2}}`, id))
	e.awaitRunning(v.ID)

	code, raw := e.do("DELETE", "/v1/jobs/"+v.ID, nil, &v)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel running job: status %d (%s)", code, raw)
	}
	v = e.await(v.ID)
	if v.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", v.State)
	}
	if !strings.Contains(v.Error, "cancelled") {
		t.Fatalf("error %q does not mention cancellation", v.Error)
	}

	// The worker must be free again: a second job on the same single-worker
	// pool runs to completion once released.
	once.Do(func() { close(release) })
	v2, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"options":{"pes":2}}`, id))
	if v2 = e.await(v2.ID); v2.State != StateDone {
		t.Fatalf("post-cancel job ended %s (%s): worker not freed", v2.State, v2.Error)
	}

	if code, _ := e.do("GET", "/v1/jobs/"+v.ID+"/result", nil, nil); code != http.StatusGone {
		t.Fatalf("result of cancelled job: status %d, want 410", code)
	}
	st := e.srv.Stats()
	if st.Jobs.Cancelled != 1 {
		t.Fatalf("stats cancelled = %d, want 1", st.Jobs.Cancelled)
	}
	if st.Running != 0 {
		t.Fatalf("running = %d after cancellation", st.Running)
	}
}

// TestCancelQueuedJobNeverRuns: a job cancelled while queued is dropped at
// dequeue — the partition function never sees it.
func TestCancelQueuedJobNeverRuns(t *testing.T) {
	var calls atomic.Int64
	var once sync.Once
	release := make(chan struct{})
	releaseOnce := func() { once.Do(func() { close(release) }) }
	cfg := Config{Workers: 1, QueueSize: 4}
	cfg.PartitionFn = blockingPartitionFn(&calls, release)
	e := newEnv(t, cfg)
	t.Cleanup(releaseOnce)
	id := e.uploadMetis(testGraph(21))

	// First job occupies the single worker; second sits in the queue.
	v1, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"pes":2}}`, id))
	e.awaitRunning(v1.ID)
	v2, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"options":{"pes":2}}`, id))

	var cv jobView
	code, raw := e.do("DELETE", "/v1/jobs/"+v2.ID, nil, &cv)
	if code != http.StatusOK || cv.State != StateCancelled {
		t.Fatalf("cancel queued job: status %d state %s (%s)", code, cv.State, raw)
	}

	// Double cancel is idempotent.
	if code, _ = e.do("DELETE", "/v1/jobs/"+v2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("second cancel: status %d, want 200", code)
	}

	// Release the first job; the cancelled one must never invoke the
	// partitioner (calls stays at 1, from v1).
	releaseOnce()
	if v1 = e.await(v1.ID); v1.State != StateDone {
		t.Fatalf("first job ended %s (%s)", v1.State, v1.Error)
	}
	// Drain: submit a sentinel and wait for it, so the worker has certainly
	// passed the cancelled corpse in the queue.
	v3, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"pes":2}}`, id))
	if v3 = e.await(v3.ID); v3.State != StateDone {
		t.Fatalf("sentinel ended %s", v3.State)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("partition fn called %d times, want 2 (cancelled job must not run)", got)
	}
	if st := e.srv.Stats(); st.Jobs.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", st.Jobs.Cancelled)
	}
}

// TestCancelQueuedJobFreesSlot: cancelling a queued job releases its
// queue-capacity slot immediately — a resubmission in the same window is
// accepted instead of bouncing off 429.
func TestCancelQueuedJobFreesSlot(t *testing.T) {
	var calls atomic.Int64
	var once sync.Once
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueSize: 1}
	cfg.PartitionFn = blockingPartitionFn(&calls, release)
	e := newEnv(t, cfg)
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	id := e.uploadMetis(testGraph(26))

	v1, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"pes":2}}`, id))
	e.awaitRunning(v1.ID)
	// Fill the single queue slot, then free it by cancelling.
	v2, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"options":{"pes":2}}`, id))
	body := fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"pes":2}}`, id)
	if code, _ := e.do("POST", "/v1/jobs", []byte(body), nil); code != http.StatusTooManyRequests {
		t.Fatalf("queue not full before cancel: status %d", code)
	}
	if code, _ := e.do("DELETE", "/v1/jobs/"+v2.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	if code, raw := e.do("POST", "/v1/jobs", []byte(body), nil); code != http.StatusAccepted {
		t.Fatalf("submit after freeing the slot: status %d (%s), want 202", code, raw)
	}
	once.Do(func() { close(release) })
}

// TestCancelFinishedJobConflicts: terminal done/failed jobs refuse
// cancellation with 409; unknown jobs give 404.
func TestCancelFinishedJobConflicts(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})
	id := e.uploadMetis(testGraph(22))
	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id))
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job ended %s", v.State)
	}
	if code, _ := e.do("DELETE", "/v1/jobs/"+v.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("cancel done job: status %d, want 409", code)
	}
	if code, _ := e.do("DELETE", "/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: status %d, want 404", code)
	}
}

// TestJobTimeout: timeout_ms bounds the job's lifetime; expiry cancels it.
func TestJobTimeout(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Workers: 1}
	cfg.PartitionFn = blockingPartitionFn(&calls, nil) // parks until ctx fires
	e := newEnv(t, cfg)
	id := e.uploadMetis(testGraph(23))

	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"timeout_ms":60,"options":{"pes":2}}`, id))
	if v.TimeoutMS != 60 {
		t.Fatalf("timeout_ms not echoed: %+v", v)
	}
	v = e.await(v.ID)
	if v.State != StateCancelled {
		t.Fatalf("timed-out job ended %s, want cancelled", v.State)
	}
	if !strings.Contains(v.Error, "timeout") {
		t.Fatalf("error %q does not mention the timeout", v.Error)
	}
	// Negative timeouts are rejected at the boundary.
	body := fmt.Sprintf(`{"graph_id":%q,"k":2,"timeout_ms":-5}`, id)
	if code, _ := e.do("POST", "/v1/jobs", []byte(body), nil); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d, want 400", code)
	}
}

// TestDoneJobDisarmsExpiry: a job that finishes well inside its timeout_ms
// stops its queued-expiry timer, so the timer does not keep the finished
// job and its result reachable for the rest of the hour.
func TestDoneJobDisarmsExpiry(t *testing.T) {
	var calls atomic.Int64
	e := newEnv(t, Config{Workers: 1, PartitionFn: stubPartitionFn(&calls)})
	id := e.uploadMetis(testGraph(29))
	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"timeout_ms":3600000,"options":{"pes":2}}`, id))
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	j, _ := e.srv.jobs.get(v.ID)
	e.srv.jobs.mu.Lock()
	armed := j.expiry.Stop()
	e.srv.jobs.mu.Unlock()
	if armed {
		t.Error("done job still has an armed queued-expiry timer")
	}
}

// TestQueuedJobTimeoutExpiresEagerly: a timeout firing while the job still
// waits in the queue cancels it on the spot — state flips to cancelled and
// the queue slot frees up — even though no worker ever touches it.
func TestQueuedJobTimeoutExpiresEagerly(t *testing.T) {
	var calls atomic.Int64
	var once sync.Once
	release := make(chan struct{})
	cfg := Config{Workers: 1, QueueSize: 1}
	cfg.PartitionFn = blockingPartitionFn(&calls, release)
	e := newEnv(t, cfg)
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	id := e.uploadMetis(testGraph(27))

	// Occupy the only worker indefinitely, then queue a job with a short
	// timeout behind it.
	v1, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"pes":2}}`, id))
	e.awaitRunning(v1.ID)
	v2, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"timeout_ms":40,"options":{"pes":2}}`, id))

	v2 = e.await(v2.ID) // must go terminal without the worker ever freeing
	if v2.State != StateCancelled {
		t.Fatalf("queued job with expired timeout is %s, want cancelled", v2.State)
	}
	if !strings.Contains(v2.Error, "queued") {
		t.Fatalf("error %q does not mention queue-time expiry", v2.Error)
	}
	// The slot is free again: a new submission is accepted, not 429.
	body := fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"pes":2}}`, id)
	if code, raw := e.do("POST", "/v1/jobs", []byte(body), nil); code != http.StatusAccepted {
		t.Fatalf("submit after queued expiry: status %d (%s), want 202", code, raw)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("partition fn called %d times, want 1 (expired job must not run)", got)
	}
	once.Do(func() { close(release) })
}

// TestCancelledRunNeverCached: a run that produces a full result after its
// context was cancelled is still a cancelled job and its output must not
// enter the result cache.
func TestCancelledRunNeverCached(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Workers: 1}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option,
		prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		calls.Add(1)
		if calls.Load() == 1 {
			<-ctx.Done() // lose the race on purpose, then "finish" anyway
			return partitionNow(g, k, opts)
		}
		return partitionNow(g, k, opts)
	}
	e := newEnv(t, cfg)
	id := e.uploadMetis(testGraph(24))

	body := fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id)
	v, _ := e.submit(body)
	e.awaitRunning(v.ID)
	e.do("DELETE", "/v1/jobs/"+v.ID, nil, nil)
	if v = e.await(v.ID); v.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", v.State)
	}

	// The identical resubmission must recompute: nothing was cached.
	v2, _ := e.submit(body)
	if v2 = e.await(v2.ID); v2.State != StateDone || v2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v", v2.State, v2.Cached)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("partition fn called %d times, want 2", got)
	}
}

// TestJobProgressExposed: live partitioner progress shows up in the job
// view while running and sticks around on completion.
func TestJobProgressExposed(t *testing.T) {
	emitted := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{Workers: 1}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option,
		prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		onProgress(parhip.ProgressEvent{Phase: "refine", Cycle: 1, Cycles: 2, Level: 3,
			N: int64(g.NumNodes()), M: g.NumEdges(), Cut: 42, Imbalance: 0.01,
			Elapsed: 5 * time.Millisecond})
		close(emitted)
		<-release
		return partitionNow(g, k, opts)
	}
	e := newEnv(t, cfg)
	t.Cleanup(func() { close(release) })
	id := e.uploadMetis(testGraph(25))

	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id))
	<-emitted
	var running jobView
	e.do("GET", "/v1/jobs/"+v.ID, nil, &running)
	if running.Progress == nil {
		t.Fatal("running job view has no progress")
	}
	if running.Progress.Phase != "refine" || running.Progress.Cut != 42 ||
		running.Progress.Cycle != 1 || running.Progress.ElapsedMS != 5 {
		t.Fatalf("progress view %+v", running.Progress)
	}
}

// TestRealRunCancellation drives the production partitioner (no test
// double) through the whole stack: submit a real job, cancel it mid-run,
// and verify the cooperative abort reaches the simulated ranks.
func TestRealRunCancellation(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})
	g, _ := genBig()
	id := e.uploadMetis(g)

	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":8,"options":{"mode":"eco","pes":4}}`, id))
	e.awaitRunning(v.ID)
	time.Sleep(30 * time.Millisecond) // let the ranks get into the pipeline
	start := time.Now()
	e.do("DELETE", "/v1/jobs/"+v.ID, nil, nil)
	v = e.await(v.ID)
	if v.State != StateCancelled {
		t.Fatalf("job ended %s (%s), want cancelled", v.State, v.Error)
	}
	if lat := time.Since(start); lat > 5*time.Second {
		t.Fatalf("cancellation of a real run took %v", lat)
	}
	if st := e.srv.Stats(); st.Running != 0 {
		t.Fatalf("running = %d after real cancellation", st.Running)
	}
}
