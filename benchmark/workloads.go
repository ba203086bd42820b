package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// workload is defined by inputs and cores only (see README.md for why each
// exists). Names are fixed: later issues cite them.
type workload struct {
	name   string
	family string
	n      int32
	k      int32
	pes    int
	mesh   bool // mesh class (size factor 20000), else social
	tcp    bool // ranks talk over loopback TCP
	warm   bool // repartition after 5 % churn
	oneCPU bool // process confined to one CPU
	svc    bool // HTTP service workload
}

var workloads = []workload{
	{name: "web-p2", family: "web", n: 131072, k: 16, pes: 2},
	{name: "web-c1", family: "web", n: 131072, k: 16, pes: 1, oneCPU: true},
	{name: "mesh-p2", family: "delaunay", n: 524288, k: 2, pes: 2, mesh: true},
	{name: "rmat-tcp", family: "rmat", n: 131072, k: 16, pes: 2, tcp: true},
	{name: "web-repart", family: "web", n: 131072, k: 16, pes: 2, warm: true},
	{name: "svc-live", family: "web", n: 65536, k: 8, pes: 2, svc: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	tinyN          = 4096
	churnFrac      = 0.05
	tightGCPercent = 10
	traceReps      = 2
	walkCutTol     = 0.10
)

// runOpts is one invocation: `--workload W --seed N --seconds S --trace T`.
type runOpts struct {
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // -scale tiny: n≈4K, one rep, for the smoke test
	outDir   string // traces and results.json go here
	declPath string
	l2Bytes  int64
}

func (o runOpts) scale() string {
	if o.tiny {
		return "tiny"
	}
	return "full"
}

func (o runOpts) nodes(w workload) int32 {
	if o.tiny {
		return tinyN
	}
	return w.n
}

// reps decides how many of something a full-scale run does; tiny runs do one.
func (o runOpts) reps(full int) int {
	if o.tiny {
		return 1
	}
	return full
}

// checks counts output checks: each is an attempted operation, and the
// command exits non-zero if any failed.
type checks struct {
	mu                sync.Mutex // svc-live checks from two connections
	attempted, failed int
}

func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
	return cond
}

func (c *checks) noErr(err error, what string) bool { return c.ok(err == nil, "%s: %v", what, err) }

// partInput is what set-up hands a partition workload.
type partInput struct {
	g    *Graph     // the graph the timed run partitions
	prev *Partition // previous partition (warm workloads)
}

func (w workload) spec(seed uint64) runSpec {
	return runSpec{k: w.k, pes: w.pes, mesh: w.mesh, seed: seed}
}

func (w workload) setup(ctx context.Context, o runOpts, seed uint64) (partInput, error) {
	g, err := genGraph(w.family, o.nodes(w), seed)
	if err != nil || !w.warm {
		return partInput{g: g}, err
	}
	// Warm workloads: the cold run and the churn are set-up.
	cold, err := partitionCold(ctx, g, w.spec(seed))
	if err != nil {
		return partInput{}, err
	}
	return partInput{g: perturb(g, churnFrac, seed+1), prev: cold.part}, nil
}

func (w workload) run(ctx context.Context, in partInput, seed uint64) (runResult, error) {
	switch {
	case w.warm:
		return partitionWarm(ctx, in.g, in.prev, w.spec(seed))
	case w.tcp:
		return partitionTCP(ctx, in.g, w.spec(seed))
	default:
		return partitionCold(ctx, in.g, w.spec(seed))
	}
}

// checkResult runs the per-partition output checks and returns the
// partition's checksum.
func checkResult(ck *checks, g *Graph, k int32, res runResult) string {
	if !ck.noErr(validate(res.part, g), "Partition.Validate") {
		return ""
	}
	assign := assignmentOf(res.part)
	cut := edgeCutOf(g, assign)
	ck.ok(cut == res.cut, "recomputed cut %d != reported cut %d", cut, res.cut)
	ck.ok(res.feasible && feasibleOf(g, assign, k), "result infeasible (reported feasible=%v)", res.feasible)
	return checksum(res.part)
}

// moreReps says whether a run's rep loop goes on: tiny and traced runs do
// a fixed number, timed runs measure for o.seconds from start, at least
// w.minReps() times.
func (o runOpts) moreReps(w workload, rep int, start time.Time) bool {
	if o.trace || o.tiny {
		return rep < traceReps
	}
	return rep < w.minReps() || time.Since(start).Seconds() < o.seconds
}

// firstReps keeps the reps every run does: how many more fit depends on
// the box, and a count such as the cut must repeat exactly for a seed.
func (w workload) firstReps(xs []float64) []float64 {
	if len(xs) > w.minReps() {
		return xs[:w.minReps()]
	}
	return xs
}

// minReps is how many timed reps a run does however slow the box is; the
// service's jobs are short, so it affords more.
func (w workload) minReps() int {
	if w.svc {
		return 5
	}
	return 3
}

// repSeed derives rep's generator and partitioner seed from --seed. Every
// rep draws a fresh input, so a run's median averages over inputs and
// partitioner luck instead of reporting one draw.
func (o runOpts) repSeed(rep int) uint64 { return o.seed*1000 + uint64(rep) + 1 }

// memoryPass runs fn with the collector held tight and returns the
// process's high-water RSS afterwards: the memory fn needs, not what a lazy
// collector let it take (at the default GOGC the peak lands anywhere between
// one and two times the live heap, from run to run).
func memoryPass(fn func() error) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(tightGCPercent))
	if err := fn(); err != nil {
		return 0, err
	}
	return peakRSSMiB()
}

func runPartitionWorkload(ctx context.Context, w workload, o runOpts, m *metricSet, ck *checks) error {
	// Memory pass and warm-up on the first input. The first timed rep
	// repeats it and must return the same checksum; on the TCP workload the
	// warm-up is the in-process run the networked one must reproduce.
	var in partInput
	var refSum string
	rssMiB, err := memoryPass(func() error {
		var err error
		if in, err = w.setup(ctx, o, o.repSeed(0)); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		var ref runResult
		if w.tcp {
			ref, err = partitionCold(ctx, in.g, w.spec(o.repSeed(0)))
		} else {
			ref, err = w.run(ctx, in, o.repSeed(0))
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		refSum = checkResult(ck, in.g, w.k, ref)
		return nil
	})
	if err != nil {
		return err
	}
	if csr := csrBytes(in.g); !o.tiny && o.l2Bytes > 0 {
		ck.ok(csr >= 4*o.l2Bytes, "%s: CSR is %d bytes, under 4 x L2 (%d): the graph does not leave cache",
			w.name, csr, 4*o.l2Bytes)
	}

	var setupS, secs, cuts []float64
	var stats []runStats
	var last runResult
	var lastSeed uint64
	var tcpMismatch float64
	start := time.Now()
	for rep := 0; o.moreReps(w, rep, start); rep++ {
		seed := o.repSeed(rep)
		if rep > 0 {
			in = partInput{}
			runtime.GC() // every set-up and rep starts from a collected heap, outside the clock
			t0 := time.Now()
			if in, err = w.setup(ctx, o, seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		runtime.GC()
		t0 := time.Now()
		res, err := w.run(ctx, in, seed)
		dt := time.Since(t0).Seconds()
		if !ck.noErr(err, "partition run") {
			continue
		}
		sum := checkResult(ck, in.g, w.k, res)
		switch {
		case rep > 0:
		case !w.tcp:
			ck.ok(sum == refSum, "the first rep's checksum %s differs from the warm-up's %s", sum, refSum)
		case sum != refSum:
			// Measured, not failed: the TCP backend is sporadically
			// non-deterministic at the parent commit (rmat seed 3002 returns
			// cut 835583 or 833935 on the same graph), and a benchmark may
			// only count operations that do not fail by themselves.
			tcpMismatch = 1
			fmt.Fprintf(os.Stderr, "warning: %s: TCP checksum %s differs from the in-process run's %s\n", w.name, sum, refSum)
		}
		secs, cuts, stats, last, lastSeed = append(secs, dt), append(cuts, float64(res.cut)), append(stats, res.stats), res, seed
		fmt.Fprintf(os.Stderr, "%s rep %d seed %d: partition_s %.4f cut %d\n", w.name, rep, seed, dt, res.cut)
	}
	if len(secs) == 0 {
		return fmt.Errorf("no timed rep succeeded")
	}

	if !o.trace {
		m.setMedian("setup_s", setupS)
		m.setMedian("partition_s", secs)
		m.setMedian("cut", w.firstReps(cuts))
		m.set("peak_rss_mb", rssMiB, 1)
		return nil
	}

	col := func(f func(runStats) float64) []float64 {
		xs := make([]float64, len(stats))
		for i, s := range stats {
			xs[i] = f(s)
		}
		return xs
	}
	m.setMedian("core.coarsen_s", col(func(s runStats) float64 { return s.coarsenS }))
	m.setMedian("core.init_s", col(func(s runStats) float64 { return s.initS }))
	m.setMedian("core.refine_s", col(func(s runStats) float64 { return s.refineS }))
	m.setMedian("core.rebalance_s", col(func(s runStats) float64 { return s.rebalanceS }))
	m.setMedian("sclp.propose_s", col(func(s runStats) float64 { return s.proposeS }))
	m.setMedian("sclp.commit_s", col(func(s runStats) float64 { return s.commitS }))
	m.set("core.levels", float64(last.stats.levels), 1)
	m.set("mpi.msgs", float64(last.stats.msgs), 1)
	m.set("mpi.bytes", float64(last.stats.bytes), 1)
	m.set("transport.frames", float64(last.stats.frames), 1)
	m.set("transport.bytes", float64(last.stats.tbytes), 1)
	if w.tcp {
		m.setMedian("transport.bootstrap_ms", col(func(s runStats) float64 { return s.bootstrapMS }))
		m.set("transport.tcp_checksum_mismatch", tcpMismatch, 1)
		ck.ok(last.stats.tbytes > 0, "TCP run reported no transport bytes")
	}
	if w.pes == 1 {
		ck.ok(last.stats.bytes == 0, "single-rank run reported %d comm bytes", last.stats.bytes)
	}
	if w.warm {
		frac, err := migratedFraction(last.part, in.prev)
		ck.noErr(err, "MigrationPlan")
		m.set("migrated_frac", frac, 1)
	}

	// The layer walk.
	ws := walkSpec{k: w.k, pes: w.pes, mesh: w.mesh, tcp: w.tcp, seed: lastSeed}
	if w.warm {
		ws.prev = assignmentOf(in.prev)
	}
	rec := newRecorder(w.name)
	runtime.GC()
	wr, err := runWalk(ctx, in.g, ws, rec)
	if err != nil {
		return err
	}
	// The walk repeats the last rep's input and seed.
	ck.ok(wr.feasible, "layer walk result is infeasible")
	ck.ok(math.Abs(float64(wr.cut-last.cut)) <= walkCutTol*float64(last.cut),
		"layer walk cut %d is not within %.0f%% of the timed cut %d", wr.cut, 100*walkCutTol, last.cut)
	ratio := wr.totalS / secs[len(secs)-1]
	if ratio < 0.8 || ratio > 1.25 {
		fmt.Fprintf(os.Stderr, "warning: %s: core.walk_ratio %.2f outside [0.8, 1.25]: the walk no longer represents the program\n", w.name, ratio)
	}
	m.set("core.walk_ratio", ratio, 1)
	for _, layer := range []string{"sclp.cluster", "sclp.refine", "sclp.rebalance", "contract.contract",
		"contract.project", "contract.lift", "evo.evolve", "dgraph.distribute", "dgraph.gather"} {
		m.set(layer+"_s", wr.layerS[layer], 1)
	}
	m.set("sclp.supersteps", float64(wr.supersteps), 1)
	m.set("contract.shrink_l1", wr.shrinkL1, 1)
	m.set("evo.coarsest_n", float64(wr.coarsestN), 1)
	m.set("evo.coarsest_m", float64(wr.coarsestM), 1)
	m.set("dgraph.ghost_frac", wr.ghostFrac, 1)
	m.set("dgraph.sync_ghosts_us", wr.syncGhostsUS, syncGhostReps)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := rec.writeChromeTrace(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
		return err
	}

	// Substrate passes, each on the workload whose end-to-end time it feeds.
	switch w.name {
	case "web-p2":
		if err := collectiveSubstrate(w.pes, false, "mpi.allreduce_us", "mpi.alltoallv_mb_s", o, m); err != nil {
			return err
		}
		hashtabSubstrate(o, m)
	case "rmat-tcp":
		if err := collectiveSubstrate(w.pes, true, "transport.tcp_allreduce_us", "transport.tcp_alltoallv_mb_s", o, m); err != nil {
			return err
		}
	}
	return nil
}

// collectiveSubstrate times the two collectives the supersteps lean on:
// the one-word allreduce that ends a superstep and a 1 MiB-per-pair
// all-to-all exchange.
func collectiveSubstrate(p int, tcp bool, allreduceMetric, alltoallMetric string, o runOpts, m *metricSet) error {
	const pairWords = 1 << 17 // 1 MiB of int64 per ordered pair
	nReduce, nExchange := 10000, 50
	if o.tiny {
		nReduce, nExchange = 200, 2
	}
	var reduceS, exchangeS float64
	err := runSPMD(p, tcp, func(c *Comm) {
		t0 := time.Now()
		for i := 0; i < nReduce; i++ {
			allreduce1(c, 1)
		}
		dReduce := time.Since(t0)
		out := make([][]int64, p)
		for r := range out {
			if r != rankOf(c) {
				out[r] = make([]int64, pairWords)
			}
		}
		allreduce1(c, 0) // line the ranks up
		t0 = time.Now()
		for i := 0; i < nExchange; i++ {
			alltoallv(c, out)
		}
		if rankOf(c) == 0 {
			reduceS, exchangeS = dReduce.Seconds(), time.Since(t0).Seconds()
		}
	})
	if err != nil {
		return err
	}
	m.set(allreduceMetric, reduceS*1e6/float64(nReduce), nReduce)
	if p > 1 {
		mib := float64(nExchange*p*(p-1)) * pairWords * 8 / (1 << 20)
		m.set(alltoallMetric, mib/exchangeS, nExchange)
	}
	return nil
}

// hashtabSubstrate times the accumulators under contraction and cluster
// connectivity: 2^22 Adds over 2^16 Zipf-distributed keys.
func hashtabSubstrate(o runOpts, m *metricSet) {
	const nKeys, rounds = 1 << 20, 4
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(o.seed))), 1.1, 1, 1<<16-1)
	keys := make([]int64, nKeys)
	for i := range keys {
		keys[i] = int64(zipf.Uint64())
	}
	r := o.reps(rounds)
	t0 := time.Now()
	hashtabAdds(keys, r)
	m.set("hashtab.add_mops", float64(nKeys*r)/1e6/time.Since(t0).Seconds(), nKeys*r)
	t0 = time.Now()
	hashtabPairAdds(keys, r)
	m.set("hashtab.pair_add_mops", float64(nKeys*r)/1e6/time.Since(t0).Seconds(), nKeys*r)
}
