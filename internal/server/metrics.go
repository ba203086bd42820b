package server

import (
	"net/http"

	"repro/internal/obs"
)

// metricsContentType is the Prometheus text exposition format version
// handleMetrics renders.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metric is one /metrics family read off a StatsView: /metrics and
// /v1/stats are two renderings of the same snapshot, never two sets of
// books.
type metric struct {
	name, help, typ string
	value           func(v *StatsView) float64
}

// metrics is the /metrics table, sorted by name.
var metrics = []metric{
	{"parhipd_cache_entries", "Result cache occupancy.", "gauge",
		func(v *StatsView) float64 { return float64(v.Cache.Size) }},
	{"parhipd_cache_hits_total", "Result cache hits.", "counter",
		func(v *StatsView) float64 { return float64(v.Cache.Hits) }},
	{"parhipd_cache_misses_total", "Result cache misses (jobs that ran the partitioner).", "counter",
		func(v *StatsView) float64 { return float64(v.Cache.Misses) }},
	{"parhipd_comm_bytes_total", "Wire bytes sent across the simulated ranks of all core runs.", "counter",
		func(v *StatsView) float64 { return float64(v.Core.CommBytes) }},
	{"parhipd_comm_messages_total", "Messages sent across the simulated ranks of all core runs.", "counter",
		func(v *StatsView) float64 { return float64(v.Core.MessagesSent) }},
	{"parhipd_core_runs_total", "Partitioner invocations (cache hits excluded).", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Runs) }},
	{"parhipd_graphs", "Graphs in the in-memory store.", "gauge",
		func(v *StatsView) float64 { return float64(v.Graphs.Count) }},
	{"parhipd_jobs_cancelled_total", "Jobs cancelled by DELETE /v1/jobs/{id} or an expired timeout_ms.", "counter",
		func(v *StatsView) float64 { return float64(v.Jobs.Cancelled) }},
	{"parhipd_jobs_completed_total", "Jobs that reached the done state (cache hits included).", "counter",
		func(v *StatsView) float64 { return float64(v.Jobs.Completed) }},
	{"parhipd_jobs_failed_total", "Jobs that reached the failed state.", "counter",
		func(v *StatsView) float64 { return float64(v.Jobs.Failed) }},
	{"parhipd_jobs_infeasible_total", "Jobs failed by the feasibility gate (result violated the balance bound).", "counter",
		func(v *StatsView) float64 { return float64(v.Jobs.InfeasibleResults) }},
	{"parhipd_jobs_running", "Jobs currently occupying a worker.", "gauge",
		func(v *StatsView) float64 { return float64(v.Running) }},
	{"parhipd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs (including cache hits).", "counter",
		func(v *StatsView) float64 { return float64(v.Jobs.Submitted) }},
	{"parhipd_live_batches_replayed_total", "Delta batches answered as idempotent sequence-number replays.", "counter",
		func(v *StatsView) float64 { return float64(v.Live.BatchesReplayed) }},
	{"parhipd_live_batches_total", "Delta batches accepted by POST /v1/graphs/{id}/updates (replays included).", "counter",
		func(v *StatsView) float64 { return float64(v.Live.Batches) }},
	{"parhipd_live_deltas_applied_total", "Deltas applied to live graphs (replays excluded).", "counter",
		func(v *StatsView) float64 { return float64(v.Live.DeltasApplied) }},
	{"parhipd_live_graphs", "Graphs promoted to live (streaming) mode.", "gauge",
		func(v *StatsView) float64 { return float64(v.Live.Graphs) }},
	{"parhipd_live_max_churn_fraction", "Largest pending churn fraction across live graphs (edge churn since last swap / edges at swap).", "gauge",
		func(v *StatsView) float64 { return v.Live.MaxChurnFraction }},
	{"parhipd_live_placement_lookups_total", "Placement lookups served from epoch snapshots.", "counter",
		func(v *StatsView) float64 { return float64(v.Live.PlacementLookups) }},
	{"parhipd_live_repartitions_triggered_total", "Repartition jobs enqueued by the live controller (initial runs included).", "counter",
		func(v *StatsView) float64 { return float64(v.Live.RepartitionsTriggered) }},
	{"parhipd_live_swaps_total", "Completed epoch swaps across live graphs.", "counter",
		func(v *StatsView) float64 { return float64(v.Live.Swaps) }},
	{"parhipd_queue_capacity", "Queue slots before submissions are rejected with 429.", "gauge",
		func(v *StatsView) float64 { return float64(v.QueueCapacity) }},
	{"parhipd_queue_depth", "Jobs waiting in the queue (not yet running).", "gauge",
		func(v *StatsView) float64 { return float64(v.QueueDepth) }},
	{"parhipd_sclp_commit_seconds_total", "Wall seconds spent in the clustering and refinement sweeps of supersteps.", "counter",
		func(v *StatsView) float64 { return v.Core.Sclp.CommitMS / 1e3 }},
	{"parhipd_sclp_evaluated_total", "Node evaluations by the clustering and refinement sweeps (exact; rank 0's view).", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Sclp.Evaluated) }},
	{"parhipd_sclp_interior_total", "Node evaluations settled by the neighbour scan alone, before any rating was accumulated.", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Sclp.Interior) }},
	{"parhipd_sclp_supersteps_total", "Label-propagation supersteps executed across all core runs (rank 0's view).", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Sclp.Supersteps) }},
	{"parhipd_transport_bytes_total", "Payload bytes handed to the rank transport across all core runs.", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Transport.BytesSent) }},
	{"parhipd_transport_frames_total", "Frames handed to the rank transport across all core runs.", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Transport.FramesSent) }},
	{"parhipd_transport_peer_failures_total", "Peers declared dead by the transport across all core runs (zero in-process).", "counter",
		func(v *StatsView) float64 { return float64(v.Core.Transport.PeerFailures) }},
	{"parhipd_worker_utilization", "Fraction of the worker pool busy right now (running/workers).", "gauge",
		func(v *StatsView) float64 { return float64(v.Running) / float64(v.Workers) }},
	{"parhipd_workers", "Worker pool size.", "gauge",
		func(v *StatsView) float64 { return float64(v.Workers) }},
}

// handleMetrics serves GET /metrics in Prometheus text exposition format:
// the metrics table over one Stats snapshot, then the two latency
// histograms the job manager observes as jobs leave the queue and finish.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	v := s.Stats()
	for _, m := range metrics {
		if obs.WriteSample(w, m.name, m.help, m.typ, m.value(&v)) != nil {
			return
		}
	}
	if s.jobs.queueWait.WritePrometheus(w) == nil {
		_ = s.jobs.runDur.WritePrometheus(w)
	}
}
