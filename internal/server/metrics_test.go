package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getRaw fetches path and returns status, Content-Type and body.
func (e *testEnv) getRaw(path string) (int, string, string) {
	e.t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + path)
	if err != nil {
		e.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// metricFamilies is the exact set of families /metrics serves, as
// "name type" pairs sorted by name.
var metricFamilies = []string{
	"parhipd_cache_entries gauge",
	"parhipd_cache_hits_total counter",
	"parhipd_cache_misses_total counter",
	"parhipd_comm_bytes_total counter",
	"parhipd_comm_messages_total counter",
	"parhipd_core_runs_total counter",
	"parhipd_graphs gauge",
	"parhipd_job_queue_wait_seconds histogram",
	"parhipd_job_run_seconds histogram",
	"parhipd_jobs_cancelled_total counter",
	"parhipd_jobs_completed_total counter",
	"parhipd_jobs_failed_total counter",
	"parhipd_jobs_infeasible_total counter",
	"parhipd_jobs_running gauge",
	"parhipd_jobs_submitted_total counter",
	"parhipd_live_batches_replayed_total counter",
	"parhipd_live_batches_total counter",
	"parhipd_live_deltas_applied_total counter",
	"parhipd_live_graphs gauge",
	"parhipd_live_max_churn_fraction gauge",
	"parhipd_live_placement_lookups_total counter",
	"parhipd_live_repartitions_triggered_total counter",
	"parhipd_live_swaps_total counter",
	"parhipd_queue_capacity gauge",
	"parhipd_queue_depth gauge",
	"parhipd_sclp_commit_seconds_total counter",
	"parhipd_sclp_evaluated_total counter",
	"parhipd_sclp_interior_total counter",
	"parhipd_sclp_supersteps_total counter",
	"parhipd_transport_bytes_total counter",
	"parhipd_transport_frames_total counter",
	"parhipd_transport_peer_failures_total counter",
	"parhipd_worker_utilization gauge",
	"parhipd_workers gauge",
}

// samples parses the single-sample lines of a text exposition.
func samples(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// TestMetricsExposition is the /metrics acceptance test: after one cold job
// and one cache hit, the endpoint serves valid Prometheus text exposition
// of exactly the metricFamilies, including the job-duration histogram
// buckets and the job/cache counters, each equal to what /v1/stats reports.
func TestMetricsExposition(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})
	id := e.uploadMetis(testGraph(5))

	body := fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2}}`, id)
	v, _ := e.submit(body)
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("job finished %s: %s", v.State, v.Error)
	}
	if v2, code := e.submit(body); code != http.StatusOK || !v2.Cached {
		t.Fatalf("second submit: status %d cached=%v, want cached 200", code, v2.Cached)
	}

	code, ctype, text := e.getRaw("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("GET /metrics Content-Type = %q, want Prometheus text exposition 0.0.4", ctype)
	}

	for _, want := range []string{
		"# TYPE parhipd_job_run_seconds histogram",
		"parhipd_job_run_seconds_bucket{le=\"+Inf\"} 1",
		"parhipd_job_run_seconds_count 1",
		"parhipd_job_run_seconds_sum ",
		"# TYPE parhipd_job_queue_wait_seconds histogram",
		"parhipd_job_queue_wait_seconds_count 1",
		"# TYPE parhipd_jobs_submitted_total counter",
		"parhipd_jobs_submitted_total 2",
		"parhipd_jobs_completed_total 2",
		"parhipd_jobs_failed_total 0",
		"parhipd_cache_hits_total 1",
		"parhipd_cache_misses_total 1",
		"parhipd_core_runs_total 1",
		"# TYPE parhipd_sclp_evaluated_total counter",
		"# TYPE parhipd_sclp_interior_total counter",
		"# TYPE parhipd_queue_depth gauge",
		"parhipd_queue_depth 0",
		"parhipd_worker_utilization 0",
		"parhipd_graphs 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	// Ranks are the only parallelism: no intra-rank worker metrics remain.
	for _, gone := range []string{"parhipd_sclp_workers", "parhipd_sclp_propose_utilization",
		"parhipd_sclp_propose_seconds_total", "parhipd_sclp_worker_busy_seconds_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("/metrics still exports %q", gone)
		}
	}

	if sclp := e.srv.Stats().Core.Sclp; sclp.Evaluated <= 0 || sclp.Interior < 0 || sclp.Interior > sclp.Evaluated ||
		!strings.Contains(text, fmt.Sprintf("parhipd_sclp_evaluated_total %d\n", sclp.Evaluated)) {
		t.Errorf("/v1/stats counts %d node evaluations, %d interior; /metrics must carry the same evaluated total",
			sclp.Evaluated, sclp.Interior)
	}

	// Well-formedness: every non-comment line is "name[{labels}] value",
	// every # line is HELP or TYPE.
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if t, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, t)
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("sample line %q: want exactly 'name value'", line)
		}
	}
	slices.Sort(types)
	if !slices.Equal(types, metricFamilies) {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(metricFamilies, "\n"))
	}

	// The server is idle, so a Stats snapshot taken now holds the same
	// counters the scrape rendered: every table entry must match it.
	snap := e.srv.Stats()
	got := samples(text)
	for _, m := range metrics {
		if v, ok := got[m.name]; !ok || v != m.value(&snap) {
			t.Errorf("/metrics %s = %v (present %v), Stats() reads %v", m.name, v, ok, m.value(&snap))
		}
	}
}

// TestWorkerUtilizationOneSnapshot scrapes /metrics while jobs start and
// finish: every scrape renders one snapshot, so the utilization gauge
// equals jobs_running/workers in each.
func TestWorkerUtilizationOneSnapshot(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	cfg := Config{Workers: 2}
	cfg.PartitionFn = blockingPartitionFn(&calls, release)
	e := newEnv(t, cfg)
	id := e.uploadMetis(testGraph(8))

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		sawBusy = make(chan struct{})
		busy    sync.Once
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := e.ts.Client().Get(e.ts.URL + "/metrics")
			if err != nil {
				t.Errorf("GET /metrics: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s := samples(string(body))
			running, workers, util := s["parhipd_jobs_running"], s["parhipd_workers"], s["parhipd_worker_utilization"]
			if util != running/workers {
				t.Errorf("scrape: worker_utilization %v, jobs_running %v, workers %v", util, running, workers)
			}
			if running > 0 {
				busy.Do(func() { close(sawBusy) })
			}
		}
	}()

	var ids []string
	for k := 2; k <= 5; k++ {
		v, _ := e.submit(fmt.Sprintf(`{"graph_id":%q,"k":%d,"options":{"mode":"minimal","pes":2}}`, id, k))
		ids = append(ids, v.ID)
	}
	// Hold the jobs until a scrape has seen them running, so the check is
	// not vacuous; then let them finish under the scraper.
	select {
	case <-sawBusy:
	case <-time.After(10 * time.Second):
		t.Error("no scrape observed a running job")
	}
	close(release)
	for _, jid := range ids {
		if v := e.await(jid); v.State != StateDone {
			t.Errorf("job %s ended %s: %s", jid, v.State, v.Error)
		}
	}
	close(stop)
	wg.Wait()
}

// TestJobTrace exercises the trace download path end to end: a job
// submitted with "trace": true exposes the spans its partitioner recorded
// through WithTracer as Chrome trace-event JSON, an untraced job 404s,
// and a traced resubmission answered from cache 409s (no run, no trace).
func TestJobTrace(t *testing.T) {
	// minimal mode is one V-cycle, so every simulated rank records exactly
	// one core.initial_partition span through the job's tracer.
	const rankSpan = "core.initial_partition"
	e := newEnv(t, Config{Workers: 2})
	id := e.uploadMetis(testGraph(6))

	traced := fmt.Sprintf(`{"graph_id":%q,"k":2,"options":{"mode":"minimal","pes":2},"trace":true}`, id)
	v, _ := e.submit(traced)
	if v = e.await(v.ID); v.State != StateDone {
		t.Fatalf("traced job finished %s: %s", v.State, v.Error)
	}

	code, ctype, body := e.getRaw("/v1/jobs/" + v.ID + "/trace")
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", code, body)
	}
	if ctype != "application/json" {
		t.Errorf("trace Content-Type = %q, want application/json", ctype)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["name"] == rankSpan {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("trace has %d %s spans, want one per rank (2)", spans, rankSpan)
	}

	// The trace flag must not split the cache: the traced twin of the same
	// submission is answered from cache, and its trace download refuses
	// cleanly instead of serving an empty recording.
	v2, code2 := e.submit(traced)
	if code2 != http.StatusOK || !v2.Cached {
		t.Fatalf("traced resubmit: status %d cached=%v, want cached 200", code2, v2.Cached)
	}
	if code, _, body := e.getRaw("/v1/jobs/" + v2.ID + "/trace"); code != http.StatusConflict {
		t.Errorf("trace of cached job: status %d (%s), want 409", code, body)
	}

	// A job never submitted with the flag has no trace at all.
	plain := fmt.Sprintf(`{"graph_id":%q,"k":4,"options":{"mode":"minimal","pes":2}}`, id)
	v3, _ := e.submit(plain)
	if v3 = e.await(v3.ID); v3.State != StateDone {
		t.Fatalf("plain job finished %s: %s", v3.State, v3.Error)
	}
	if code, _, _ := e.getRaw("/v1/jobs/" + v3.ID + "/trace"); code != http.StatusNotFound {
		t.Errorf("trace of untraced job: status %d, want 404", code)
	}
}
