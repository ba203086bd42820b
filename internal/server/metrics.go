package server

import (
	"net/http"

	"repro/internal/obs"
)

// metricsContentType is the Prometheus text exposition format version the
// registry renders (obs.Registry.WritePrometheus).
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// buildMetrics registers the service's collectors on the registry created
// in New. Gauges and counters are func collectors reading the jobManager's
// counters under its mutex at scrape time — /metrics and /v1/stats are two
// renderings of the same state, never two sets of books. The two
// histograms (queue wait, run duration) are the only stateful collectors;
// the manager observes them as jobs reach a terminal state.
func (s *Server) buildMetrics(reg *obs.Registry) {
	m := s.jobs

	// lockedGauge reads one jobManager field under m.mu.
	lockedGauge := func(read func() float64) func() float64 {
		return func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return read()
		}
	}

	reg.GaugeFunc("parhipd_queue_depth",
		"Jobs waiting in the queue (not yet running).",
		lockedGauge(func() float64 { return float64(len(m.queue)) }))
	reg.GaugeFunc("parhipd_queue_capacity",
		"Queue slots before submissions are rejected with 429.",
		lockedGauge(func() float64 { return float64(m.queueCap) }))
	reg.GaugeFunc("parhipd_workers",
		"Worker pool size.",
		lockedGauge(func() float64 { return float64(m.workers) }))
	reg.GaugeFunc("parhipd_jobs_running",
		"Jobs currently occupying a worker.",
		lockedGauge(func() float64 { return float64(m.running) }))
	reg.GaugeFunc("parhipd_worker_utilization",
		"Fraction of the worker pool busy right now (running/workers).",
		lockedGauge(func() float64 {
			if m.workers == 0 {
				return 0
			}
			return float64(m.running) / float64(m.workers)
		}))

	reg.CounterFunc("parhipd_jobs_submitted_total",
		"Jobs accepted by POST /v1/jobs (including cache hits).",
		lockedGauge(func() float64 { return float64(m.submitted) }))
	reg.CounterFunc("parhipd_jobs_completed_total",
		"Jobs that reached the done state (cache hits included).",
		lockedGauge(func() float64 { return float64(m.completed) }))
	reg.CounterFunc("parhipd_jobs_failed_total",
		"Jobs that reached the failed state.",
		lockedGauge(func() float64 { return float64(m.failed) }))
	reg.CounterFunc("parhipd_jobs_cancelled_total",
		"Jobs cancelled by DELETE /v1/jobs/{id} or an expired timeout_ms.",
		lockedGauge(func() float64 { return float64(m.cancelled) }))
	reg.CounterFunc("parhipd_jobs_infeasible_total",
		"Jobs failed by the feasibility gate (result violated the balance bound).",
		lockedGauge(func() float64 { return float64(m.infeasible) }))
	reg.CounterFunc("parhipd_cache_hits_total",
		"Result cache hits.",
		lockedGauge(func() float64 { return float64(m.cacheHits) }))
	reg.CounterFunc("parhipd_cache_misses_total",
		"Result cache misses (jobs that ran the partitioner).",
		lockedGauge(func() float64 { return float64(m.cacheMisses) }))
	reg.CounterFunc("parhipd_core_runs_total",
		"Partitioner invocations (cache hits excluded).",
		lockedGauge(func() float64 { return float64(m.coreRuns) }))
	reg.CounterFunc("parhipd_comm_messages_total",
		"Messages sent across the simulated ranks of all core runs.",
		lockedGauge(func() float64 { return float64(m.comm.MessagesSent) }))
	reg.CounterFunc("parhipd_comm_bytes_total",
		"Wire bytes sent across the simulated ranks of all core runs.",
		lockedGauge(func() float64 { return float64(m.comm.BytesSent()) }))
	reg.CounterFunc("parhipd_transport_frames_total",
		"Frames handed to the rank transport across all core runs.",
		lockedGauge(func() float64 { return float64(m.transport.FramesSent) }))
	reg.CounterFunc("parhipd_transport_bytes_total",
		"Payload bytes handed to the rank transport across all core runs.",
		lockedGauge(func() float64 { return float64(m.transport.BytesSent) }))
	reg.CounterFunc("parhipd_transport_reconnects_total",
		"Transport reconnect attempts across all core runs (zero in-process).",
		lockedGauge(func() float64 { return float64(m.transport.Reconnects) }))
	reg.CounterFunc("parhipd_transport_peer_failures_total",
		"Peers declared dead by the transport across all core runs (zero in-process).",
		lockedGauge(func() float64 { return float64(m.transport.PeerFailures) }))

	reg.CounterFunc("parhipd_sclp_supersteps_total",
		"Label-propagation supersteps executed across all core runs (rank 0's view).",
		lockedGauge(func() float64 { return float64(m.par.Supersteps) }))
	reg.CounterFunc("parhipd_sclp_commit_seconds_total",
		"Wall seconds spent in the clustering and refinement sweeps of supersteps.",
		lockedGauge(func() float64 { return float64(m.par.CommitNS) / 1e9 }))
	reg.CounterFunc("parhipd_sclp_evaluated_total",
		"Node evaluations by the clustering and refinement sweeps (exact; rank 0's view).",
		lockedGauge(func() float64 { return float64(m.par.Evaluated) }))
	reg.CounterFunc("parhipd_sclp_interior_total",
		"Node evaluations settled by the neighbour scan alone, before any rating was accumulated.",
		lockedGauge(func() float64 { return float64(m.par.Interior) }))

	reg.GaugeFunc("parhipd_cache_entries",
		"Result cache occupancy.",
		func() float64 { return float64(m.cache.len()) })
	reg.GaugeFunc("parhipd_graphs",
		"Graphs in the in-memory store.",
		func() float64 { return float64(s.store.len()) })

	// Live-graph subsystem: streamed deltas, controller triggers, epoch
	// swaps and the lock-free placement read path.
	lv := s.live
	reg.GaugeFunc("parhipd_live_graphs",
		"Graphs promoted to live (streaming) mode.",
		func() float64 { return float64(lv.count()) })
	reg.CounterFunc("parhipd_live_deltas_applied_total",
		"Deltas applied to live graphs (replays excluded).",
		func() float64 { return float64(lv.deltasApplied.Load()) })
	reg.CounterFunc("parhipd_live_batches_total",
		"Delta batches accepted by POST /v1/graphs/{id}/updates (replays included).",
		func() float64 { return float64(lv.batches.Load()) })
	reg.CounterFunc("parhipd_live_batches_replayed_total",
		"Delta batches answered as idempotent sequence-number replays.",
		func() float64 { return float64(lv.batchesReplayed.Load()) })
	reg.CounterFunc("parhipd_live_repartitions_triggered_total",
		"Repartition jobs enqueued by the live controller (initial runs included).",
		func() float64 { return float64(lv.triggered.Load()) })
	reg.CounterFunc("parhipd_live_swaps_total",
		"Completed epoch swaps across live graphs.",
		func() float64 { return float64(lv.swaps.Load()) })
	reg.CounterFunc("parhipd_live_placement_lookups_total",
		"Placement lookups served from epoch snapshots.",
		func() float64 { return float64(lv.lookups.Load()) })
	reg.GaugeFunc("parhipd_live_max_churn_fraction",
		"Largest pending churn fraction across live graphs (edge churn since last swap / edges at swap).",
		lv.maxChurnFraction)
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metricsContentType)
	_ = s.reg.WritePrometheus(w)
}
