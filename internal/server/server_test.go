package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testEnv wraps an httptest server around a Server with a small, fast
// configuration.
type testEnv struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testEnv{t: t, srv: srv, ts: ts}
}

// partitionNow runs a real, uncancellable partitioner session: what the
// PartitionFn fakes fall through to once they have observed what they test.
func partitionNow(g *graph.Graph, k int32, opts []parhip.Option) (parhip.Result, error) {
	p, err := parhip.New(g, append(opts, parhip.WithK(k))...)
	if err != nil {
		return parhip.Result{}, err
	}
	return p.Run(context.Background())
}

func (e *testEnv) do(method, path string, body []byte, out any) (int, string) {
	e.t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			e.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

// uploadMetis uploads g in METIS text form and returns its graph ID.
func (e *testEnv) uploadMetis(g *graph.Graph) string {
	e.t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteMetis(&buf, g); err != nil {
		e.t.Fatalf("write metis: %v", err)
	}
	var meta storedGraph
	code, raw := e.do("POST", "/v1/graphs", buf.Bytes(), &meta)
	if code != http.StatusCreated {
		e.t.Fatalf("upload: status %d: %s", code, raw)
	}
	return meta.ID
}

// submit posts a job and returns its view.
func (e *testEnv) submit(body string) (jobView, int) {
	e.t.Helper()
	var v jobView
	code, raw := e.do("POST", "/v1/jobs", []byte(body), &v)
	if code != http.StatusAccepted && code != http.StatusOK {
		e.t.Fatalf("submit: status %d: %s", code, raw)
	}
	return v, code
}

// await polls a job until it leaves the queued/running states.
func (e *testEnv) await(id string) jobView {
	e.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var v jobView
		code, raw := e.do("GET", "/v1/jobs/"+id, nil, &v)
		if code != http.StatusOK {
			e.t.Fatalf("poll %s: status %d: %s", id, code, raw)
		}
		if v.State == StateDone || v.State == StateFailed || v.State == StateCancelled {
			return v
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testGraph(seed uint64) *graph.Graph {
	g, _ := gen.PlantedPartition(600, 8, 8, 0.5, seed)
	return g
}

func TestEndToEnd(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})
	g := testGraph(1)
	id := e.uploadMetis(g)

	v, code := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"mode":"minimal","pes":2}}`, id))
	if code != http.StatusAccepted {
		t.Fatalf("cold submit returned %d, want 202", code)
	}
	v = e.await(v.ID)
	if v.State != StateDone {
		t.Fatalf("job ended %s (%s)", v.State, v.Error)
	}
	if v.Cached {
		t.Fatalf("first job reported cached")
	}

	var res resultView
	code, raw := e.do("GET", "/v1/jobs/"+v.ID+"/result", nil, &res)
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, raw)
	}
	if int32(len(res.Part)) != g.NumNodes() {
		t.Fatalf("partition has %d entries for %d nodes", len(res.Part), g.NumNodes())
	}
	for i, b := range res.Part {
		if b < 0 || b >= 4 {
			t.Fatalf("node %d assigned out-of-range block %d", i, b)
		}
	}
	if got := parhip.EdgeCut(g, res.Part); got != res.Cut {
		t.Fatalf("reported cut %d but recomputed %d", res.Cut, got)
	}
	if !res.Feasible {
		t.Errorf("partition infeasible: imbalance %f", res.Imbalance)
	}
}

func TestUploadBinaryFormat(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})
	g := testGraph(2)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("write binary: %v", err)
	}
	var meta storedGraph
	code, raw := e.do("POST", "/v1/graphs", buf.Bytes(), &meta)
	if code != http.StatusCreated {
		t.Fatalf("binary upload: status %d: %s", code, raw)
	}
	if meta.N != g.NumNodes() || meta.M != g.NumEdges() {
		t.Fatalf("metadata (n=%d, m=%d) != graph (n=%d, m=%d)", meta.N, meta.M, g.NumNodes(), g.NumEdges())
	}
	if meta.Fingerprint != g.Fingerprint() {
		t.Fatalf("fingerprint mismatch")
	}

	// Re-uploading the identical graph (any format) is idempotent.
	id2 := e.uploadMetis(g)
	if id2 != meta.ID {
		t.Fatalf("re-upload created new graph %s, want %s", id2, meta.ID)
	}
}

func TestCacheHitSkipsRecomputation(t *testing.T) {
	var runs atomic.Int64
	cfg := Config{Workers: 2}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option, prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		runs.Add(1)
		return partitionNow(g, k, opts)
	}
	e := newEnv(t, cfg)
	id := e.uploadMetis(testGraph(3))

	// Eps 0 and eps 0.03 must canonicalize to the same cache key.
	first := fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id)
	second := fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2,"eps":0.03,"seed":1}}`, id)

	v1, _ := e.submit(first)
	v1 = e.await(v1.ID)
	if v1.State != StateDone || v1.Cached {
		t.Fatalf("first job: state %s cached=%v", v1.State, v1.Cached)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("first job ran partitioner %d times", got)
	}

	v2, code := e.submit(second)
	if code != http.StatusOK {
		t.Fatalf("cached submit returned %d, want 200", code)
	}
	if v2.State != StateDone || !v2.Cached {
		t.Fatalf("second job: state %s cached=%v, want immediate cached done", v2.State, v2.Cached)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cache hit still invoked the partitioner (%d runs)", got)
	}

	// Both jobs return identical results.
	var r1, r2 resultView
	e.do("GET", "/v1/jobs/"+v1.ID+"/result", nil, &r1)
	e.do("GET", "/v1/jobs/"+v2.ID+"/result", nil, &r2)
	if r1.Cut != r2.Cut || len(r1.Part) != len(r2.Part) {
		t.Fatalf("cached result differs: cut %d vs %d", r1.Cut, r2.Cut)
	}
	if !r2.Cached {
		t.Fatalf("second result not marked cached")
	}

	// The hit is visible in /v1/stats.
	st := e.srv.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.HitRate != 0.5 {
		t.Fatalf("hit rate %f, want 0.5", st.Cache.HitRate)
	}
	if st.Core.Runs != 1 {
		t.Fatalf("core runs %d, want 1", st.Core.Runs)
	}

	// A different k misses the cache and recomputes.
	v3, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"options":{"mode":"minimal","pes":2}}`, id))
	v3 = e.await(v3.ID)
	if v3.Cached {
		t.Fatalf("different k reported cached")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("expected second computation for k=3, got %d runs", got)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	const jobs = 12 // ≥ 8 concurrent partition jobs (acceptance criterion)
	e := newEnv(t, Config{Workers: 4, QueueSize: jobs})

	ids := make([]string, 3)
	for i := range ids {
		ids[i] = e.uploadMetis(testGraph(uint64(10 + i)))
	}

	var wg sync.WaitGroup
	errs := make(chan string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"graph_id":%q,"k":%d,"options":{"mode":"minimal","pes":2,"seed":%d}}`,
				ids[i%len(ids)], 2+i%3, 1+i/6)
			v, _ := e.submit(body)
			v = e.await(v.ID)
			if v.State != StateDone {
				errs <- fmt.Sprintf("job %s: %s (%s)", v.ID, v.State, v.Error)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	st := e.srv.Stats()
	if st.Jobs.Submitted != jobs || st.Jobs.Completed != jobs {
		t.Fatalf("stats: submitted %d completed %d, want %d/%d",
			st.Jobs.Submitted, st.Jobs.Completed, jobs, jobs)
	}
	if st.Jobs.Failed != 0 {
		t.Fatalf("%d jobs failed", st.Jobs.Failed)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Fatalf("work left after completion: depth %d running %d", st.QueueDepth, st.Running)
	}
	if len(st.RecentJobs) != jobs {
		t.Fatalf("recent timings has %d entries, want %d", len(st.RecentJobs), jobs)
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	cfg := Config{Workers: 1, QueueSize: 1}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option, prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		<-block
		return partitionNow(g, k, opts)
	}
	e := newEnv(t, cfg)
	t.Cleanup(func() { once.Do(func() { close(block) }) })
	id := e.uploadMetis(testGraph(4))

	submit := func(k int) (int, string) {
		body := fmt.Sprintf(`{"graph_id":%q,"k":%d,"options":{"mode":"minimal","pes":2}}`, id, k)
		return e.do("POST", "/v1/jobs", []byte(body), nil)
	}
	// First job occupies the single worker; wait until it is running so the
	// queue slot is truly free for the second.
	code, raw := submit(2)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, raw)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code, raw = submit(3); code != http.StatusAccepted {
		t.Fatalf("second submit (fills queue): %d %s", code, raw)
	}
	if code, raw = submit(4); code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d %s, want 429", code, raw)
	}
	once.Do(func() { close(block) })
}

func TestValidationErrors(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})
	id := e.uploadMetis(testGraph(5))

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad k", fmt.Sprintf(`{"graph_id":%q,"k":0}`, id), http.StatusBadRequest},
		{"missing graph", `{"graph_id":"g999","k":2}`, http.StatusNotFound},
		{"bad mode", fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"turbo"}}`, id), http.StatusBadRequest},
		{"bad objective", fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"objective":"vibes"}}`, id), http.StatusBadRequest},
		{"unknown field", fmt.Sprintf(`{"graph_id":%q,"k":2,"blocks":9}`, id), http.StatusBadRequest},
		{"garbage body", `{"graph_id"`, http.StatusBadRequest},
		// Past math.MaxInt64/1e6 ms a time.Duration wraps negative.
		{"timeout overflow", fmt.Sprintf(`{"graph_id":%q,"k":2,"timeout_ms":9300000000000}`, id), http.StatusBadRequest},
		{"evo budget overflow", fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"evo_budget_ms":9300000000000}}`, id), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, raw := e.do("POST", "/v1/jobs", []byte(tc.body), nil); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, strings.TrimSpace(raw), tc.want)
		}
	}

	if code, _ := e.do("POST", "/v1/graphs", []byte("not a graph at all"), nil); code != http.StatusBadRequest {
		t.Errorf("bad graph upload: status %d, want 400", code)
	}
	if code, _ := e.do("GET", "/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing job: want 404, got %d", code)
	}
	if code, _ := e.do("GET", "/v1/jobs/j999/result", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing job result: want 404, got %d", code)
	}
}

// TestCanonOptionsBoundsPEs checks the rank cap on the options alone: a job
// that got past it would allocate its world before any check could stop it,
// so this test never submits one.
func TestCanonOptionsBoundsPEs(t *testing.T) {
	if o, err := canonOptions(jobOptions{PEs: 512}); err != nil || o.PEs != 512 {
		t.Fatalf("pes 512: %+v, %v", o, err)
	}
	for _, pes := range []int{513, 100000} {
		if _, err := canonOptions(jobOptions{PEs: pes}); err == nil || !strings.Contains(err.Error(), "pes") {
			t.Errorf("pes %d: err = %v, want one naming pes", pes, err)
		}
	}
}

func TestResultBeforeDone(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	cfg := Config{Workers: 1}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option, prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		<-block
		return partitionNow(g, k, opts)
	}
	e := newEnv(t, cfg)
	t.Cleanup(func() { once.Do(func() { close(block) }) })
	id := e.uploadMetis(testGraph(6))
	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id))
	if code, _ := e.do("GET", "/v1/jobs/"+v.ID+"/result", nil, nil); code != http.StatusConflict {
		t.Fatalf("result of unfinished job: status %d, want 409", code)
	}
	once.Do(func() { close(block) })
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job ended %s", v.State)
	}
}

func TestGraphDeleteAfterJobFinished(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})
	id := e.uploadMetis(testGraph(7))
	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id))
	// While the job is queued or running, the delete guard answers 409
	// (covered deterministically in TestDeleteGraphGuards); once the job
	// is done the graph can go, and its result stays readable.
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job ended %s (%s)", v.State, v.Error)
	}
	if code, raw := e.do("DELETE", "/v1/graphs/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if code, _ := e.do("GET", "/v1/graphs/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph still listed: %d", code)
	}
	if code, _ := e.do("GET", "/v1/jobs/"+v.ID+"/result", nil, nil); code != http.StatusOK {
		t.Fatalf("result unreadable after graph delete: %d", code)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newResultCache(2)
	r := func(cut int64) *parhip.Result { return &parhip.Result{Cut: cut} }
	c.put("a", r(1))
	c.put("b", r(2))
	if _, ok := c.get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", r(3)) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
}

func TestServerCloseDrainsQueue(t *testing.T) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	e := &testEnv{t: t, srv: srv, ts: ts}
	id := e.uploadMetis(testGraph(8))
	var jobIDs []string
	for i := 0; i < 4; i++ {
		v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2,"seed":%d}}`, id, i+1))
		jobIDs = append(jobIDs, v.ID)
	}
	srv.Close() // must drain, not abandon
	for _, jid := range jobIDs {
		j, ok := srv.jobs.get(jid)
		if !ok {
			t.Fatalf("job %s vanished", jid)
		}
		srv.jobs.mu.Lock()
		state := j.state
		srv.jobs.mu.Unlock()
		if state != StateDone {
			t.Fatalf("job %s left in state %s after Close", jid, state)
		}
	}
	// Submissions after Close are rejected.
	code, _ := e.do("POST", "/v1/jobs", []byte(fmt.Sprintf(`{"graph_id":%q,"k":2}`, id)), nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: %d, want 503", code)
	}
}

// TestInfeasibleResultFailsJob: the feasibility gate turns an infeasible
// partitioner result into a failed job, counts it in infeasible_results,
// and never caches it (a resubmission must recompute).
func TestInfeasibleResultFailsJob(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{Workers: 1}
	cfg.PartitionFn = func(ctx context.Context, g *graph.Graph, k int32, opts []parhip.Option, prev *parhip.Partition, onProgress func(parhip.ProgressEvent)) (parhip.Result, error) {
		calls.Add(1)
		res := parhip.Result{
			Imbalance: float64(k) - 1,
			Feasible:  false,
		}
		res.Stats.Lmax = 10
		res.Stats.MaxBlockWeight = int64(g.NumNodes())
		return res, nil
	}
	e := newEnv(t, cfg)
	id := e.uploadMetis(testGraph(9))

	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"pes":2}}`, id))
	v = e.await(v.ID)
	if v.State != StateFailed {
		t.Fatalf("infeasible job ended %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "infeasible") {
		t.Fatalf("error %q does not mention infeasibility", v.Error)
	}

	// The result endpoint must refuse, not serve the bad partition.
	code, raw := e.do("GET", "/v1/jobs/"+v.ID+"/result", nil, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("result of infeasible job: status %d (%s), want 422", code, raw)
	}

	// Resubmitting the identical job must recompute: the bad result was
	// not cached.
	v2, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"pes":2}}`, id))
	v2 = e.await(v2.ID)
	if v2.State != StateFailed || v2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v", v2.State, v2.Cached)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("partition fn called %d times, want 2 (no caching of infeasible results)", got)
	}

	st := e.srv.Stats()
	if st.Jobs.InfeasibleResults != 2 {
		t.Fatalf("infeasible_results = %d, want 2", st.Jobs.InfeasibleResults)
	}
	if st.Jobs.Failed != 2 {
		t.Fatalf("failed = %d, want 2", st.Jobs.Failed)
	}
}

// TestStatsInfeasibleCounterZeroOnHealthyRuns: real runs never trip the
// gate now that feasibility is a core postcondition.
func TestStatsInfeasibleCounterZeroOnHealthyRuns(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})
	id := e.uploadMetis(testGraph(10))
	v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":3,"options":{"mode":"minimal","pes":2}}`, id))
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job ended %s (%s)", v.State, v.Error)
	}
	if st := e.srv.Stats(); st.Jobs.InfeasibleResults != 0 {
		t.Fatalf("infeasible_results = %d, want 0", st.Jobs.InfeasibleResults)
	}
}

// TestRepartitionJobs exercises the dynamic-graph flow end to end: partition
// graph A, upload a churned revision B, repartition B seeded with A's job,
// and check the migration stats, the prev-aware cache key and the
// validation of bad prev references.
func TestRepartitionJobs(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})
	g := testGraph(3)
	idA := e.uploadMetis(g)

	cold, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"mode":"minimal","pes":2}}`, idA))
	if v := e.await(cold.ID); v.State != StateDone {
		t.Fatalf("cold job: %+v", v)
	}

	idB := e.uploadMetis(gen.Perturb(g, 0.05, 9))
	warm, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"prev_job_id":%q,"options":{"mode":"minimal","pes":2}}`, idB, cold.ID))
	wv := e.await(warm.ID)
	if wv.State != StateDone {
		t.Fatalf("warm job: %+v", wv)
	}
	if !wv.Repartition || wv.PrevJobID != cold.ID {
		t.Errorf("warm job view lacks repartition marker: %+v", wv)
	}

	var res resultView
	if code, raw := e.do("GET", "/v1/jobs/"+warm.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("warm result: status %d: %s", code, raw)
	}
	if !res.Repartition {
		t.Error("result body lacks repartition flag")
	}
	if res.MigratedNodes < 0 || res.MigratedNodes > int64(g.NumNodes()) {
		t.Errorf("implausible migrated_nodes %d", res.MigratedNodes)
	}
	if res.MigrationVolume < res.MigratedNodes {
		t.Errorf("migration_volume %d below migrated_nodes %d (unit weights)", res.MigrationVolume, res.MigratedNodes)
	}
	if len(res.Part) != int(g.NumNodes()) {
		t.Errorf("result part has %d entries, want %d", len(res.Part), g.NumNodes())
	}

	// Identical repartition submission hits the cache; the same options
	// WITHOUT prev must not (prev is part of the key).
	warm2, code := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"prev_job_id":%q,"options":{"mode":"minimal","pes":2}}`, idB, cold.ID))
	if code != http.StatusOK || !warm2.Cached {
		t.Errorf("identical repartition submission not served from cache: code %d, %+v", code, warm2)
	}
	coldB, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"mode":"minimal","pes":2}}`, idB))
	if coldB.Cached {
		t.Error("cold submission wrongly shared the repartition job's cache entry")
	}
	e.await(coldB.ID)

	// Inline prev: take the cold result's assignment and submit it directly.
	var coldRes resultView
	e.do("GET", "/v1/jobs/"+cold.ID+"/result", nil, &coldRes)
	prevJSON, _ := json.Marshal(coldRes.Part)
	inline, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":4,"prev":%s,"options":{"mode":"minimal","pes":2}}`, idB, prevJSON))
	if iv := e.await(inline.ID); iv.State != StateDone || !iv.Repartition {
		t.Errorf("inline-prev job: %+v", iv)
	}

	// Validation failures.
	for name, body := range map[string]string{
		"unknown prev job": fmt.Sprintf(`{"graph_id":%q,"k":4,"prev_job_id":"j999"}`, idB),
		"not-done prev":    fmt.Sprintf(`{"graph_id":%q,"k":4,"prev_job_id":%q,"prev":[0,1]}`, idB, cold.ID),
		"wrong k":          fmt.Sprintf(`{"graph_id":%q,"k":8,"prev_job_id":%q}`, idB, cold.ID),
		"bad inline len":   fmt.Sprintf(`{"graph_id":%q,"k":4,"prev":[0,1,2]}`, idB),
	} {
		var apiErr apiError
		if code, raw := e.do("POST", "/v1/jobs", []byte(body), &apiErr); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, raw)
		}
	}
}
