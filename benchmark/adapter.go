package main

// adapter.go is the only file of the benchmark that names repo APIs: the
// public parhip surface, core.RunOn, the sclp/contract/evo/dgraph/mpi/live
// layer functions and the HTTP routes. Workloads, the layer walk, spans,
// statistics and -compare use only the names declared here, so a later PR
// that renames a layer function fixes the benchmark in this one file.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	parhip "repro"
	"repro/internal/arena"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/evo"
	"repro/internal/gen"
	"repro/internal/hashtab"
	"repro/internal/live"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sclp"
	"repro/internal/server"
	"repro/internal/workpool"
)

// Opaque handles the rest of the benchmark passes around.
type (
	Graph     = parhip.Graph
	Partition = parhip.Partition
	Comm      = mpi.Comm
	DGraph    = dgraph.DGraph
	EdgeDelta = gen.EdgeDelta
)

// HTTP routes of the service half.
const (
	routeGraphs = "/v1/graphs"
	routeJobs   = "/v1/jobs"
)

func routeJob(id string) string       { return routeJobs + "/" + id }
func routeJobResult(id string) string { return routeJobs + "/" + id + "/result" }
func routeLive(id string) string      { return routeGraphs + "/" + id + "/live" }
func routeUpdates(id string) string   { return routeGraphs + "/" + id + "/updates" }
func routePlacement(id string, v int32) string {
	return fmt.Sprintf("%s/%s/placement/%d", routeGraphs, id, v)
}

// --- inputs -------------------------------------------------------------

func genGraph(family string, n int32, seed uint64) (*Graph, error) {
	return gen.ByFamily(gen.Family(family), n, seed)
}

func perturb(g *Graph, frac float64, seed uint64) *Graph { return gen.Perturb(g, frac, seed) }

func perturbDeltas(g *Graph, frac float64, seed uint64) []EdgeDelta {
	return gen.PerturbDeltas(g, frac, seed)
}

func applyDeltas(g *Graph, ds []EdgeDelta) *Graph { return gen.ApplyEdgeDeltas(g, ds) }

// csrBytes is the in-memory size of g's CSR arrays, the working set the
// "leaves cache" check compares against L2.
func csrBytes(g *Graph) int64 {
	return 8*int64(len(g.XAdj)) + 4*int64(len(g.Adj)) + 8*int64(len(g.AdjW)) + 8*int64(len(g.NW))
}

func encodeMetis(g *Graph) ([]byte, error) {
	var b bytes.Buffer
	err := parhip.WriteMetis(&b, g)
	return b.Bytes(), err
}

func encodeBinary(g *Graph) ([]byte, error) {
	var b bytes.Buffer
	err := parhip.WriteBinary(&b, g)
	return b.Bytes(), err
}

func decodeMetis(body []byte) (*Graph, error)  { return parhip.ReadMetis(bytes.NewReader(body)) }
func decodeBinary(body []byte) (*Graph, error) { return parhip.ReadBinary(bytes.NewReader(body)) }
func fingerprint(g *Graph) string              { return parhip.Fingerprint(g) }

// --- end-to-end partition runs -------------------------------------------

// runSpec is one partition request: inputs and cores, no Workers knob.
type runSpec struct {
	k    int32
	pes  int
	mesh bool
	seed uint64
}

// runStats is the plain-number view of a run's core.Stats.
type runStats struct {
	coarsenS, initS, refineS, rebalanceS float64
	proposeS, commitS                    float64
	levels                               int
	msgs, bytes                          int64
	frames, tbytes                       int64
	bootstrapMS                          float64 // TCP runs only
}

type runResult struct {
	part     *Partition
	cut      int64
	feasible bool
	stats    runStats
}

func (s runSpec) class() parhip.GraphClass {
	if s.mesh {
		return parhip.Mesh
	}
	return parhip.Social
}

func (s runSpec) options() []parhip.Option {
	return []parhip.Option{parhip.WithPEs(s.pes), parhip.WithMode(parhip.Fast),
		parhip.WithClass(s.class()), parhip.WithSeed(s.seed)}
}

func statsOf(st core.Stats) runStats {
	return runStats{
		coarsenS:   st.CoarsenTime.Seconds(),
		initS:      st.InitTime.Seconds(),
		refineS:    st.RefineTime.Seconds(),
		rebalanceS: st.RebalanceTime.Seconds(),
		proposeS:   float64(st.Par.ProposeNS) / 1e9,
		commitS:    float64(st.Par.CommitNS) / 1e9,
		levels:     len(st.Levels),
		msgs:       st.Comm.MessagesSent,
		bytes:      st.Comm.BytesSent(),
		frames:     st.Transport.FramesSent,
		tbytes:     st.Transport.BytesSent,
	}
}

func fromResult(res parhip.Result) runResult {
	return runResult{part: res.Partition, cut: res.Cut, feasible: res.Feasible, stats: statsOf(res.Stats)}
}

// partitionCold is the public v2 cold path.
func partitionCold(ctx context.Context, g *Graph, s runSpec) (runResult, error) {
	p, err := parhip.New(g, append(s.options(), parhip.WithK(s.k))...)
	if err != nil {
		return runResult{}, err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return runResult{}, err
	}
	return fromResult(res), nil
}

// partitionWarm is the public repartitioning path (k comes from prev).
func partitionWarm(ctx context.Context, g *Graph, prev *Partition, s runSpec) (runResult, error) {
	res, err := parhip.Repartition(ctx, g, prev, s.options()...)
	if err != nil {
		return runResult{}, err
	}
	return fromResult(res), nil
}

// partitionTCP runs the same request over a loopback TCP world: one world
// per rank, one core.RunOn per world, as P OS processes would. The world
// bootstrap is inside the caller's timing because a user pays it per run.
func partitionTCP(ctx context.Context, g *Graph, s runSpec) (runResult, error) {
	t0 := time.Now()
	ws, err := tcpWorlds(s.pes)
	if err != nil {
		return runResult{}, err
	}
	defer closeWorlds(ws)
	bootstrap := time.Since(t0)
	cls := core.ClassSocial
	if s.mesh {
		cls = core.ClassMesh
	}
	cfg := core.FastConfig(s.k, cls)
	cfg.Seed = s.seed
	results := make([]core.Result, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			results[i], errs[i] = core.RunOn(ctx, w, g, cfg)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return runResult{}, fmt.Errorf("tcp world %d: %w", i, err)
		}
	}
	res := results[0]
	if res.Part == nil {
		return runResult{}, fmt.Errorf("tcp run returned no partition on rank 0's world")
	}
	part, err := parhip.NewPartition(g, res.Part, s.k, walkEps)
	if err != nil {
		return runResult{}, err
	}
	st := statsOf(res.Stats)
	st.frames, st.tbytes = 0, 0
	for _, w := range ws {
		ts := w.TransportStats()
		st.frames += ts.FramesSent
		st.tbytes += ts.BytesSent
	}
	st.bootstrapMS = float64(bootstrap) / 1e6
	return runResult{part: part, cut: res.Stats.Cut, feasible: res.Stats.Feasible, stats: st}, nil
}

func assignmentOf(p *Partition) []int32 {
	a := make([]int32, p.NumNodes())
	for v := range a {
		a[v] = p.Block(int32(v))
	}
	return a
}

func edgeCutOf(g *Graph, assign []int32) int64 { return parhip.EdgeCut(g, assign) }

func feasibleOf(g *Graph, assign []int32, k int32) bool {
	return parhip.IsFeasible(g, assign, k, walkEps)
}

func validate(p *Partition, g *Graph) error { return p.Validate(g) }
func checksum(p *Partition) string          { return p.Checksum() }

func newPartition(g *Graph, assign []int32, k int32) (*Partition, error) {
	return parhip.NewPartition(g, assign, k, walkEps)
}

func migratedFraction(cur, prev *Partition) (float64, error) {
	plan, err := cur.MigrationPlan(prev)
	if err != nil {
		return 0, err
	}
	return plan.MigratedFraction(), nil
}

// --- worlds ---------------------------------------------------------------

func tcpWorlds(p int) ([]*mpi.World, error) {
	ts, err := transport.Loopback(p, transport.TCPConfig{})
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, len(ts))
	for i, t := range ts {
		trs[i] = t
	}
	return mpi.JoinWorlds(trs...)
}

func closeWorlds(ws []*mpi.World) {
	for _, w := range ws {
		w.Close()
	}
}

// runSPMD executes fn on every rank of a p-rank world of the workload's
// type (in-process mailboxes, or loopback TCP with one world per rank).
func runSPMD(p int, tcp bool, fn func(c *Comm)) error {
	if !tcp {
		mpi.NewWorld(p).Run(fn)
		return nil
	}
	ws, err := tcpWorlds(p)
	if err != nil {
		return err
	}
	defer closeWorlds(ws)
	mpi.RunAll(ws, fn)
	return nil
}

func allreduce1(c *Comm, v int64) int64 { return c.AllreduceSum1(v) }

func alltoallv(c *Comm, out [][]int64) [][]int64 { return c.Alltoallv(out) }

// --- pipeline layers, as the walk calls them ---------------------------------

// Pipeline constants of the fast setting (core.FastConfig after
// normalisation, DESIGN.md's pipeline): the walk uses the same stage order,
// V-cycle count, pool and arena.
const (
	walkEps              = 0.03
	walkVCycles          = 2
	walkCoarsenIters     = 3
	walkRefineIters      = 6
	walkPhasesPerRound   = 8
	walkCoarsestPerBlock = 100
	walkMinCoarsest      = 300
	walkEvoPopulation    = 3
)

func sizeFactor(mesh bool) float64 {
	if mesh {
		return 20000
	}
	return 14
}

// scratch is a rank's worker pool, arena and worksharing counters, sized
// like core does (NumCPU divided by the ranks this process hosts).
type scratch struct {
	pool *workpool.Pool
	ar   *arena.Arena
	par  sclp.ParStats
}

func newScratch(c *Comm) *scratch {
	workers := runtime.NumCPU() / c.LocalRankCount()
	return &scratch{pool: workpool.New(workers), ar: arena.New()}
}

func (s *scratch) reset()            { s.ar.Reset() }
func (s *scratch) close()            { s.pool.Close() }
func (s *scratch) supersteps() int64 { return s.par.Supersteps }

// sharedRNG is the stream every rank draws identical level seeds and
// size factors from.
type sharedRNG struct{ r *rng.RNG }

func newSharedRNG(seed uint64) sharedRNG { return sharedRNG{rng.New(seed)} }
func (s sharedRNG) next() uint64         { return s.r.Uint64() }

// laterCycleFactor is the random size factor of V-cycles after the first.
func (s sharedRNG) laterCycleFactor() float64 { return float64(s.r.IntRange(10, 25)) }

func rankOf(c *Comm) int              { return c.Rank() }
func ghostFraction(d *DGraph) float64 { return d.GhostFraction() }
func totalNodeWeight(d *DGraph) int64 { return d.GlobalNodeWeight() }
func maxNodeWeight(d *DGraph) int64   { return d.MaxNodeWeightGlobal() }
func globalN(d *DGraph) int64         { return d.GlobalN }
func nTotal(d *DGraph) int32          { return d.NTotal() }
func graphSize(g *Graph) (n, m int64) { return int64(g.NumNodes()), g.NumEdges() }

// toLocal spreads a global assignment over d's local and ghost nodes (nil
// stays nil).
func toLocal(d *DGraph, global []int32) []int64 {
	if global == nil {
		return nil
	}
	local := make([]int64, d.NTotal())
	for v := range local {
		local[v] = int64(global[d.ToGlobal(int32(v))])
	}
	return local
}

func lmaxOf(total int64, k int32) int64 { return partition.Lmax(total, k, walkEps) }

func distribute(c *Comm, g *Graph) *DGraph { return dgraph.FromGraph(c, g) }

func cluster(d *DGraph, u int64, constraint []int64, seed uint64, sc *scratch) []int64 {
	return sclp.ParCluster(d, sclp.ParClusterConfig{
		U: u, Iterations: walkCoarsenIters, DegreeOrder: true,
		PhasesPerRound: walkPhasesPerRound, Constraint: constraint, Seed: seed,
		Pool: sc.pool, Arena: sc.ar, Stats: &sc.par,
	})
}

func contractLevel(d *DGraph, labels []int64, sc *scratch) (*DGraph, []int64) {
	res := contract.ParContractWith(d, labels, contract.ContractOptions{Pool: sc.pool, Arena: sc.ar})
	return res.Coarse, res.FineToCoarse
}

func lift(fine, coarse *DGraph, fineToCoarse, finePart []int64) []int64 {
	return contract.ParLift(fine, coarse, fineToCoarse, finePart)
}

func project(fine, coarse *DGraph, fineToCoarse, coarsePart []int64) []int64 {
	return contract.ParProject(fine, coarse, fineToCoarse, coarsePart)
}

func gatherGraph(d *DGraph) *Graph { return d.Gather() }

// gatherAssignment assembles the full assignment from every rank's local
// share. Collective.
func gatherAssignment(d *DGraph, part []int64) []int32 {
	out := make([]int32, 0, d.GlobalN)
	for _, p := range d.Comm.Allgatherv(part[:d.NLocal()]) {
		for _, b := range p {
			out = append(out, int32(b))
		}
	}
	return out
}

func evolve(ctx context.Context, c *Comm, g *Graph, k int32, seed uint64, initial, migrationRef []int32) []int32 {
	return evo.Evolve(ctx, c, g, evo.Config{
		K: k, Eps: walkEps, PopulationSize: walkEvoPopulation, Rounds: 0,
		MutationProb: 0.1, MigrateEvery: 2, Seed: seed,
		Initial: initial, MigrationRef: migrationRef,
	})
}

func refine(d *DGraph, part []int64, k int32, lmax int64, seed uint64, prev []int64, sc *scratch) {
	sclp.ParRefine(d, part, sclp.ParRefineConfig{
		K: k, Lmax: lmax, Iterations: walkRefineIters, PhasesPerRound: walkPhasesPerRound,
		Seed: seed, Prev: prev, Pool: sc.pool, Arena: sc.ar, Stats: &sc.par,
	})
}

func rebalance(d *DGraph, part []int64, k int32, lmax int64) {
	sclp.ParRebalance(d, part, sclp.ParRebalanceConfig{K: k, Lmax: lmax})
}

func maxBlockWeight(d *DGraph, part []int64, k int32) int64 {
	var mx int64
	for _, w := range d.BlockWeights(part, k) {
		if w > mx {
			mx = w
		}
	}
	return mx
}

func distEdgeCut(d *DGraph, part []int64) int64 { return d.EdgeCut(part) }
func syncGhosts(d *DGraph, vals []int64)        { d.SyncGhosts(vals) }

// --- substrates -----------------------------------------------------------------

func hashtabAdds(keys []int64, rounds int) {
	t := hashtab.NewAccumulatorI64(64)
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			t.Add(k, 1)
		}
	}
}

func hashtabPairAdds(keys []int64, rounds int) {
	t := hashtab.NewAccumulatorPairI64(64)
	for r := 0; r < rounds; r++ {
		for i, k := range keys {
			t.Add(k, keys[len(keys)-1-i], 1)
		}
	}
}

// liveGraph wraps the live overlay for the direct (no HTTP) substrate pass.
type liveGraph struct{ lg *live.Graph }

func newLiveGraph(base *Graph) liveGraph { return liveGraph{live.NewGraph(base)} }

func (l liveGraph) applyBatch(seq int64, ds []EdgeDelta) error {
	batch := make([]live.Delta, len(ds))
	for i, d := range ds {
		op := live.OpRemoveEdge
		if d.Add {
			op = live.OpAddEdge
		}
		batch[i] = live.Delta{Op: op, U: d.U, V: d.V, W: d.W}
	}
	_, err := l.lg.ApplyBatch(seq, batch)
	return err
}

func (l liveGraph) materialize() *Graph { return l.lg.Materialize() }

// install publishes p as the first epoch's placement.
func (l liveGraph) install(p *Partition) error {
	if _, err := l.lg.BeginRepartition(p.K(), p.Eps()); err != nil {
		return err
	}
	return l.lg.CompleteRepartition(p)
}

// lookups resolves n placements and returns a checksum so the loop is not
// optimised away.
func (l liveGraph) lookups(n int) int64 {
	pl := l.lg.Placement()
	nodes := pl.NumNodes()
	var sum int64
	for i := 0; i < n; i++ {
		b, _ := pl.Block(int32(i) % nodes)
		sum += int64(b)
	}
	return sum
}

// --- service -----------------------------------------------------------------------

// startService serves a default-configured parhipd handler on a loopback
// port; stop drains it.
func startService() (url string, stop func()) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	return ts.URL, func() {
		ts.Close()
		srv.Close()
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 2 * time.Minute}
}
