package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// svc-live: the service half of a request's life, over HTTP only, closed
// loop from this process. Phase A cold jobs; B identical resubmits (cache
// path); C live delta streams ending in an auto-repartition and epoch
// swap; D quiet placement reads on one keep-alive connection.

const (
	cachedResubmits = 200
	liveCycles      = 3
	quietBatches    = 40
	liveThreshold   = 0.10 // policy.churn_fraction
	quietChurn      = 0.09 // quiet streams stop below the threshold
	triggerChurn    = 0.11 // the trigger batch crosses it
	placementReads  = 20000
	pollEvery       = 2 * time.Millisecond
	readerThinkTime = time.Millisecond
	waitLimit       = 2 * time.Minute
)

// client is a closed-loop HTTP client; every request is an attempted
// operation, and a non-2xx answer or transport error a failed one.
type client struct {
	base  string
	hc    *http.Client
	ck    *checks
	fails atomic.Int64
}

// do sends one request and decodes a 2xx JSON answer into out.
func (c *client) do(method, path string, body []byte, out any) bool {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return c.fail(method, path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.fail(method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return c.fail(method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return c.fail(method, path, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return c.fail(method, path, err)
		}
	}
	return c.ck.ok(true, "")
}

func (c *client) fail(method, path string, err error) bool {
	c.fails.Add(1)
	return c.ck.ok(false, "%s %s: %v", method, path, err)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of plain values are marshalled
	}
	return b
}

type jobStatus struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Cached  bool    `json:"cached"`
	Error   string  `json:"error"`
	QueueMS float64 `json:"queue_ms"`
}

type jobResult struct {
	Cut      int64   `json:"cut"`
	Feasible bool    `json:"feasible"`
	Cached   bool    `json:"cached"`
	Part     []int32 `json:"part"`
}

type liveStatus struct {
	Epoch         int64 `json:"epoch"`
	PendingDeltas int64 `json:"pending_deltas"`
	InFlight      bool  `json:"in_flight"`
}

type updateAnswer struct {
	Applied  int   `json:"applied"`
	Replayed bool  `json:"replayed"`
	Epoch    int64 `json:"epoch"`
	Decision struct {
		Trigger bool `json:"trigger"`
	} `json:"decision"`
}

type placementAnswer struct {
	Block int32 `json:"block"`
	Epoch int64 `json:"epoch"`
}

// svcInput is what set-up hands the service workload: a running service
// with the graph uploaded.
type svcInput struct {
	g       *Graph
	body    []byte // the METIS upload body
	graphID string
	uploadS float64
	stop    func()
}

func (w workload) jobBody(graphID string, seed uint64) []byte {
	return mustJSON(map[string]any{"graph_id": graphID, "k": w.k,
		"options": map[string]any{"mode": "fast", "pes": w.pes, "seed": seed}})
}

// runJob takes one job from submit to its result body read and reports
// the phases' durations.
func (c *client) runJob(body []byte) (res jobResult, st jobStatus, totalS, readMS float64, ok bool) {
	t0 := time.Now()
	if !c.do("POST", routeJobs, body, &st) {
		return
	}
	for deadline := t0.Add(waitLimit); st.State != "done"; {
		if st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			c.ck.ok(false, "job %s ended %q: %s", st.ID, st.State, st.Error)
			return
		}
		time.Sleep(pollEvery)
		if !c.do("GET", routeJob(st.ID), nil, &st) {
			return
		}
	}
	tRead := time.Now()
	if !c.do("GET", routeJobResult(st.ID), nil, &res) {
		return
	}
	return res, st, time.Since(t0).Seconds(), float64(time.Since(tRead)) / 1e6, true
}

// checkJob validates a job's partition against the uploaded graph.
func checkJob(ck *checks, g *Graph, k int32, res jobResult) *Partition {
	p, err := newPartition(g, res.Part, k)
	if !ck.noErr(err, "job result partition") {
		return nil
	}
	checkResult(ck, g, k, runResult{part: p, cut: res.Cut, feasible: res.Feasible})
	return p
}

// setup starts a fresh service and uploads a fresh graph.
func (w workload) setupService(c *client, o runOpts, seed uint64) (svcInput, error) {
	g, err := genGraph(w.family, o.nodes(w), seed)
	if err != nil {
		return svcInput{}, err
	}
	body, err := encodeMetis(g)
	if err != nil {
		return svcInput{}, err
	}
	in := svcInput{g: g, body: body}
	c.base, in.stop = startService()
	var up struct {
		ID string `json:"id"`
	}
	t0 := time.Now()
	if !c.do("POST", routeGraphs, body, &up) {
		in.stop()
		return svcInput{}, fmt.Errorf("upload failed")
	}
	in.uploadS, in.graphID = time.Since(t0).Seconds(), up.ID
	return in, nil
}

func runServiceWorkload(w workload, o runOpts, m *metricSet, ck *checks) error {
	c := &client{hc: newHTTPClient(), ck: ck}
	defer c.hc.CloseIdleConnections()

	var in svcInput
	defer func() {
		if in.stop != nil {
			in.stop()
		}
	}()
	// Memory pass and warm-up: one cold job on the first input.
	var refSum string
	rssMiB, err := memoryPass(func() error {
		var err error
		if in, err = w.setupService(c, o, o.repSeed(0)); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res, _, _, _, ok := c.runJob(w.jobBody(in.graphID, o.repSeed(0)))
		if !ok {
			return fmt.Errorf("warm-up job failed")
		}
		if p := checkJob(ck, in.g, w.k, res); p != nil {
			refSum = checksum(p)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase A: cold jobs, each on a fresh service, graph and seed, until the
	// time is up. The first repeats the warm-up's input on a fresh service
	// and must return the same checksum.
	var setupS, jobS, cuts, queueMS, readMS []float64
	var lastPart *Partition
	var lastSeed uint64
	start := time.Now()
	for rep := 0; o.moreReps(w, rep, start); rep++ {
		seed := o.repSeed(rep)
		in.stop()
		in = svcInput{}
		runtime.GC()
		t0 := time.Now()
		if in, err = w.setupService(c, o, seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		res, st, totalS, rdMS, ok := c.runJob(w.jobBody(in.graphID, seed))
		if !ok {
			continue
		}
		ck.ok(!st.Cached && !res.Cached, "cold job %s was answered from cache", st.ID)
		p := checkJob(ck, in.g, w.k, res)
		if p == nil {
			continue
		}
		if rep == 0 {
			ck.ok(checksum(p) == refSum, "the first job's checksum %s differs from the warm-up's %s", checksum(p), refSum)
		}
		lastPart, lastSeed = p, seed
		jobS, cuts = append(jobS, totalS), append(cuts, float64(res.Cut))
		queueMS, readMS = append(queueMS, st.QueueMS), append(readMS, rdMS)
		fmt.Fprintf(os.Stderr, "%s rep %d seed %d: partition_s %.4f cut %d\n", w.name, rep, seed, totalS, res.Cut)
	}
	if lastSeed != o.repSeed(len(setupS)-1) {
		return fmt.Errorf("the last cold job did not succeed") // later phases build on it
	}

	if !o.trace {
		m.setMedian("setup_s", setupS)
		m.setMedian("partition_s", jobS)
		m.setMedian("cut", w.firstReps(cuts))
		m.set("peak_rss_mb", rssMiB, 1)
		return nil
	}
	m.set("server.upload_s", in.uploadS, 1)
	m.setMedian("server.queue_wait_ms", queueMS)
	m.setMedian("server.result_read_ms", readMS)

	// Phase B: identical resubmits are answered from the result cache.
	var cachedMS []float64
	for i := 0; i < o.reps(cachedResubmits); i++ {
		res, st, totalS, _, ok := c.runJob(w.jobBody(in.graphID, lastSeed))
		if ok && ck.ok(st.Cached, "resubmit %d was not answered from cache", i) {
			ck.ok(float64(res.Cut) == cuts[len(cuts)-1], "cached cut %d != cold cut %.0f", res.Cut, cuts[len(cuts)-1])
			cachedMS = append(cachedMS, totalS*1e3)
		}
	}
	m.set("job_cached_ms", percentile(cachedMS, 50), len(cachedMS))

	if err := livePhases(w, o, in, c, m); err != nil {
		return err
	}
	m.set("server.http_fail", float64(c.fails.Load()), 1)
	return serviceSubstrates(w, o, in, lastPart, m)
}

// deltaBody renders one sequence-numbered update batch.
func deltaBody(seq int64, ds []EdgeDelta) []byte {
	type wire struct {
		Op string `json:"op"`
		U  int32  `json:"u"`
		V  int32  `json:"v"`
		W  int64  `json:"w"`
	}
	out := make([]wire, len(ds))
	for i, d := range ds {
		out[i] = wire{"remove_edge", d.U, d.V, d.W}
		if d.Add {
			out[i].Op = "add_edge"
		}
	}
	return mustJSON(map[string]any{"seq": seq, "deltas": out})
}

// epochWatch is what the second connection saw while a swap was pending.
type epochWatch struct {
	at        time.Time // when a newer epoch first became readable (zero: never)
	epoch     int64
	latencyMS []float64
	monotone  bool
}

// watchEpoch reads placements, one at a time with a short think time,
// until one is served from an epoch after from.
func (c *client) watchEpoch(graphID string, nodes int32, from int64) epochWatch {
	w := epochWatch{epoch: from, monotone: true}
	deadline := time.Now().Add(waitLimit)
	for v := int32(0); time.Now().Before(deadline); v++ {
		var pa placementAnswer
		t0 := time.Now()
		if !c.do("GET", routePlacement(graphID, v%nodes), nil, &pa) {
			break
		}
		w.latencyMS = append(w.latencyMS, float64(time.Since(t0))/1e6)
		if pa.Epoch < w.epoch {
			w.monotone = false
		}
		if w.epoch = pa.Epoch; pa.Epoch > from {
			w.at = time.Now()
			break
		}
		time.Sleep(readerThinkTime)
	}
	return w
}

// livePhases is phases C and D.
func livePhases(w workload, o runOpts, in svcInput, c *client, m *metricSet) error {
	ck := c.ck
	enable := mustJSON(map[string]any{"k": w.k,
		"options": map[string]any{"mode": "fast", "pes": w.pes, "seed": o.seed},
		"policy":  map[string]any{"churn_fraction": liveThreshold}})
	if !c.do("POST", routeLive(in.graphID), enable, nil) {
		return fmt.Errorf("enable live failed")
	}
	var st liveStatus
	for deadline := time.Now().Add(waitLimit); st.Epoch < 1; time.Sleep(pollEvery) {
		if !c.do("GET", routeLive(in.graphID), nil, &st) || time.Now().After(deadline) {
			return fmt.Errorf("initial live partition never arrived")
		}
	}

	nodes, _ := graphSize(in.g)
	var batchMS, swapS, busyMS []float64
	var quietDeltas int
	var quietS float64
	cur, seq, epoch := in.g, int64(0), st.Epoch
	for cycle := 0; cycle < o.reps(liveCycles); cycle++ {
		_, edges := graphSize(cur)
		nQuiet, nTrigger := int(quietChurn*float64(edges)), int(triggerChurn*float64(edges))
		// A perturbation of fraction f is about 2·f·m deltas (f·m removals,
		// then as many insertions): 0.6 × 0.11 leaves a margin over 0.11·m.
		deltas := perturbDeltas(cur, 0.6*triggerChurn, o.seed+uint64(cycle)+1)
		if !ck.ok(len(deltas) >= nTrigger, "cycle %d: only %d deltas for a trigger at %d", cycle, len(deltas), nTrigger) {
			break
		}
		// Quiet stream: below the threshold, so no repartition is in flight.
		for b := 0; b < quietBatches; b++ {
			lo, hi := b*nQuiet/quietBatches, (b+1)*nQuiet/quietBatches
			seq++
			body := deltaBody(seq, deltas[lo:hi])
			var ans updateAnswer
			t0 := time.Now()
			if !c.do("POST", routeUpdates(in.graphID), body, &ans) {
				continue
			}
			dt := time.Since(t0)
			ck.ok(ans.Applied == hi-lo && !ans.Decision.Trigger, "quiet batch %d: applied %d of %d, trigger=%v",
				seq, ans.Applied, hi-lo, ans.Decision.Trigger)
			batchMS = append(batchMS, float64(dt)/1e6)
			quietS, quietDeltas = quietS+dt.Seconds(), quietDeltas+hi-lo
		}

		// Trigger batch, while a second connection keeps reading placements.
		seq++
		body := deltaBody(seq, deltas[nQuiet:nTrigger])
		done := make(chan epochWatch, 1)
		go func() { done <- c.watchEpoch(in.graphID, int32(nodes), epoch) }()
		var ans updateAnswer
		t0 := time.Now()
		sent := c.do("POST", routeUpdates(in.graphID), body, &ans)
		s := <-done
		ck.ok(s.monotone, "cycle %d: a placement epoch went backwards", cycle)
		if sent && ck.ok(!s.at.IsZero(), "cycle %d: the new epoch never became readable", cycle) {
			ck.ok(ans.Decision.Trigger, "cycle %d: the trigger batch did not trigger", cycle)
			swapS = append(swapS, s.at.Sub(t0).Seconds())
			busyMS = append(busyMS, s.latencyMS...)
			epoch = s.epoch
		}
		cur = applyDeltas(cur, deltas[:nTrigger])
	}

	// Replaying the last batch is a no-op, and nothing is left pending.
	var ans updateAnswer
	if c.do("POST", routeUpdates(in.graphID), deltaBody(seq, nil), &ans) {
		ck.ok(ans.Replayed && ans.Applied == 0, "replay of batch %d was applied (replayed=%v applied=%d)", seq, ans.Replayed, ans.Applied)
	}
	if c.do("GET", routeLive(in.graphID), nil, &st) {
		ck.ok(st.PendingDeltas == 0 && !st.InFlight, "final pending_deltas=%d in_flight=%v", st.PendingDeltas, st.InFlight)
	}
	if quietS > 0 {
		m.set("live_deltas_per_s", float64(quietDeltas)/quietS, quietDeltas)
	}
	m.setMedian("live_swap_s", swapS)
	m.set("server.update_batch_p50_ms", percentile(batchMS, 50), len(batchMS))
	m.set("server.placement_busy_p99_ms", percentile(busyMS, 99), len(busyMS))

	// Phase D: quiet placement reads on one keep-alive connection.
	var readMS []float64
	for i := 0; i < o.reps(placementReads); i++ {
		var pa placementAnswer
		t0 := time.Now()
		if c.do("GET", routePlacement(in.graphID, int32(i)%int32(nodes)), nil, &pa) {
			readMS = append(readMS, float64(time.Since(t0))/1e6)
		}
	}
	m.set("placement_p99_ms", percentile(readMS, 99), len(readMS))
	m.set("server.placement_p50_ms", percentile(readMS, 50), len(readMS))
	return nil
}

// serviceSubstrates times, without HTTP, the layers under the service
// phases: graph parsing and fingerprinting under upload, the live overlay
// under update batches, swaps and placement reads.
func serviceSubstrates(w workload, o runOpts, in svcInput, part *Partition, m *metricSet) error {
	mib := func(b []byte) float64 { return float64(len(b)) / (1 << 20) }
	binBody, err := encodeBinary(in.g)
	if err != nil {
		return err
	}
	timed := func(fn func() error) ([]float64, error) {
		var secs []float64
		for i := 0; i < o.reps(3); i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return nil, err
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		return secs, nil
	}
	secs, err := timed(func() error { _, err := decodeMetis(in.body); return err })
	if err != nil {
		return err
	}
	m.set("graph.read_metis_mb_s", mib(in.body)/median(secs), len(secs))
	if secs, err = timed(func() error { _, err := decodeBinary(binBody); return err }); err != nil {
		return err
	}
	m.set("graph.read_binary_mb_s", mib(binBody)/median(secs), len(secs))
	secs, _ = timed(func() error { fingerprint(in.g); return nil })
	m.set("graph.fingerprint_ms", median(secs)*1e3, len(secs))

	_, edges := graphSize(in.g)
	deltas := perturbDeltas(in.g, 0.6*triggerChurn, o.seed+1)
	if n := int(triggerChurn * float64(edges)); n < len(deltas) {
		deltas = deltas[:n]
	}
	lg := newLiveGraph(in.g)
	t0 := time.Now()
	if err := lg.applyBatch(1, deltas); err != nil {
		return err
	}
	m.set("live.apply_kdeltas_s", float64(len(deltas))/1e3/time.Since(t0).Seconds(), len(deltas))
	t0 = time.Now()
	lg.materialize()
	m.set("live.materialize_ms", float64(time.Since(t0))/1e6, 1)
	// The placement table answers reads from the job's partition; it was
	// computed on the base graph, so install it on an overlay without deltas.
	lg = newLiveGraph(in.g)
	if err := lg.install(part); err != nil {
		return err
	}
	lookups := o.reps(1 << 22)
	t0 = time.Now()
	lg.lookups(lookups)
	m.set("live.placement_lookup_ns", float64(time.Since(t0))/float64(lookups), lookups)
	return nil
}
