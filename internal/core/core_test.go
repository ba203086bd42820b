package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/testutil"
)

// run partitions g on a fresh in-process world of P ranks.
func run(P int, g *graph.Graph, cfg Config) (Result, error) {
	return RunOn(context.Background(), mpi.NewWorld(P), g, cfg)
}

func TestRunFastSocial(t *testing.T) {
	g, _ := gen.PlantedPartition(4000, 30, 10, 0.5, 1)
	res, err := run(4, g, FastConfig(2, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Evaluate(g, res.Part, 2, 0.03)
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep)
	}
	// The planted cross-community edges are ~ n*degOut/2; a community-aware
	// partitioner must cut far less than total edge weight.
	if rep.Cut*4 > g.TotalEdgeWeight() {
		t.Fatalf("cut %d too large vs m=%d", rep.Cut, g.TotalEdgeWeight())
	}
	if len(res.Stats.Levels) < 2 {
		t.Fatalf("no coarsening happened: %v", res.Stats.Levels)
	}
}

func TestRunMeshK4(t *testing.T) {
	g := gen.DelaunayLike(3600, 2)
	cfg := FastConfig(4, ClassMesh)
	res, err := run(4, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Evaluate(g, res.Part, 4, 0.03)
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep)
	}
	// A 60x60 triangulated mesh split into 4 has cut Theta(side); demand
	// well below a random partition (~3/4 of all edges).
	if rep.Cut*4 > g.TotalEdgeWeight() {
		t.Fatalf("mesh cut %d too large", rep.Cut)
	}
}

func TestRunCoarseningShrinksSocialFast(t *testing.T) {
	g, _ := gen.PlantedPartition(6000, 50, 12, 0.3, 3)
	res, err := run(4, g, FastConfig(2, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	lv := res.Stats.Levels
	if len(lv) < 2 {
		t.Fatal("no levels recorded")
	}
	// First contraction should shrink aggressively on a community graph
	// (paper: "two orders of magnitude" at web scale; demand >= 4x here).
	if lv[1].N*4 > lv[0].N {
		t.Fatalf("first contraction %d -> %d too weak", lv[0].N, lv[1].N)
	}
}

func TestRunEcoAtLeastAsGoodAsFast(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 20, 10, 0.8, 4)
	fast, err := run(2, g, FastConfig(4, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	eco, err := run(2, g, EcoConfig(4, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	fc := partition.EdgeCut(g, fast.Part)
	ec := partition.EdgeCut(g, eco.Part)
	// Eco spends much more effort; allow slack for randomness but it must
	// not be much worse.
	if ec > fc*11/10 {
		t.Fatalf("eco cut %d much worse than fast cut %d", ec, fc)
	}
}

func TestRunVariousPEcounts(t *testing.T) {
	g, _ := gen.PlantedPartition(2500, 16, 9, 0.5, 5)
	for _, P := range []int{1, 2, 3, 8} {
		res, err := run(P, g, FastConfig(2, ClassSocial))
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if err := testutil.ValidatePartition(g, res.Part, 2); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if !partition.IsFeasible(g, res.Part, 2, 0.03) {
			t.Errorf("P=%d: infeasible (imbalance %.4f)", P,
				partition.Imbalance(g, res.Part, 2))
		}
	}
}

func TestRunK1(t *testing.T) {
	g := gen.RGG(500, 6)
	res, err := run(2, g, FastConfig(1, ClassMesh))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Part {
		if b != 0 {
			t.Fatal("k=1 must put everything in block 0")
		}
	}
}

// TestRunK1EmitsDone checks that a k = 1 run, which skips the multilevel
// pipeline, still ends with the done event the progress contract promises.
func TestRunK1EmitsDone(t *testing.T) {
	g, err := gen.ByFamily(gen.FamilyWeb, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastConfig(1, ClassSocial)
	var evs []Progress
	cfg.OnProgress = func(p Progress) { evs = append(evs, p) }
	res, err := run(2, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("k=1 run emitted %d progress events, want one done event", len(evs))
	}
	ev := evs[0]
	if ev.Phase != PhaseDone || ev.Cut != 0 || ev.Imbalance != 0 || ev.N != int64(g.NumNodes()) {
		t.Errorf("k=1 done event = %+v, want phase done, cut 0, imbalance 0, n %d", ev, g.NumNodes())
	}
	if res.Stats.TotalTime <= 0 || ev.Elapsed < res.Stats.TotalTime {
		t.Errorf("k=1 times: TotalTime %v, done event Elapsed %v", res.Stats.TotalTime, ev.Elapsed)
	}
}

func TestRunInvalidK(t *testing.T) {
	g := graph.Path(10)
	if _, err := run(2, g, Config{K: 0}); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestRunSmallGraphNoCoarsening(t *testing.T) {
	// Graph below the coarsest limit: evolutionary algorithm runs directly.
	g := graph.Cycle(64)
	cfg := FastConfig(2, ClassMesh)
	res, err := run(2, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Evaluate(g, res.Part, 2, 0.03)
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep)
	}
	if rep.Cut > 4 {
		t.Fatalf("cycle cut %d", rep.Cut)
	}
}

// TestCoarseningReachesLimitWithIsolatedNodes: about a third of an rmat
// graph's nodes have degree 0, which label propagation cannot move. Unless
// they are packed, the hierarchy stalls an order of magnitude above the
// stop size and the initial partitioner gets a graph of mostly loose nodes.
func TestCoarseningReachesLimitWithIsolatedNodes(t *testing.T) {
	const k = 16
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 6)
	res, err := run(2, g, FastConfig(k, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	limit := max(coarsestPerBlock*int64(k), minCoarsest)
	lv := res.Stats.Levels
	if last := lv[len(lv)-1].N; last > 2*limit {
		t.Fatalf("coarsest graph has %d nodes, want <= 2 x %d: hierarchy %v", last, limit, lv)
	}
}

// TestMeshCoarseningReachesLimit: with the mesh class's f = 20000, Lmax/f
// on this graph is below 1, so U = max_v c(v) = 1 and no two nodes could
// merge; without a per-level floor of a few average node weights the
// hierarchy stops at the input graph.
func TestMeshCoarseningReachesLimit(t *testing.T) {
	const k = 2
	g := gen.DelaunayLike(20000, 4)
	limit := max(coarsestPerBlock*int64(k), minCoarsest)
	for _, P := range []int{1, 2} {
		res, err := run(P, g, FastConfig(k, ClassMesh))
		if err != nil {
			t.Fatal(err)
		}
		lv := res.Stats.Levels
		if last := lv[len(lv)-1].N; last > 2*limit {
			t.Errorf("P=%d: coarsest graph has %d nodes, want <= 2 x %d: hierarchy %v", P, last, limit, lv)
		}
	}
}

// TestClusterBoundFloorSparesSocial: while a level has more than
// coarsestLimit >= 100k nodes of weight >= 1, 3W/n < 0.03 W/k <= Lmax/25,
// so for every f <= 25 (the social default 14, and [10, 25] in later
// V-cycles) the floor never raises u and a social run is unchanged.
func TestClusterBoundFloorSparesSocial(t *testing.T) {
	for k := int64(2); k <= 64; k++ {
		limit := max(coarsestPerBlock*k, minCoarsest)
		for _, n := range []int64{limit + 1, limit + 7, 2 * limit, 10*limit + 3, 1 << 20} {
			for _, w := range []int64{n, n + 1, 2*n - 1, 3 * n, 7*n + 5, 1000 * n, 1 << 40, math.MaxInt64 / 2, math.MaxInt64} {
				for f := int64(10); f <= 25; f++ {
					for _, eps := range []float64{0, 0.03} {
						u := int64(float64(partition.Lmax(w, int32(k), eps)) / float64(f))
						if got := clusterBound(u, w, n); got != u {
							t.Fatalf("k=%d n=%d W=%d f=%d eps=%v: bound %d, want u=%d", k, n, w, f, eps, got, u)
						}
					}
				}
			}
		}
	}
}

// TestRunDeterministicWithRounds requires one partition per seed at P > 1,
// in fast mode and in eco mode, whose evolutionary search exchanges
// migrants between the ranks on a fixed schedule.
func TestRunDeterministicWithRounds(t *testing.T) {
	g, err := gen.ByFamily(gen.FamilyRMAT, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"fast", FastConfig(k, ClassSocial)},
		{"eco", EcoConfig(k, ClassSocial)},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var first []int32
			for i := 0; i < 5; i++ {
				res, err := run(4, g, mode.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !partition.IsFeasible(g, res.Part, k, 0.03) {
					t.Fatal("infeasible result")
				}
				if first == nil {
					first = res.Part
				} else if !slices.Equal(res.Part, first) {
					t.Fatalf("run %d: cut %d, partition differs from run 0 (cut %d)",
						i, partition.EdgeCut(g, res.Part), partition.EdgeCut(g, first))
				}
			}
		})
	}
}

func TestPrepartitionNeverWorsened(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 15, 9, 0.5, 11)
	k := int32(4)
	// A feasible but mediocre starting point: hash placement.
	pre := make([]int32, g.NumNodes())
	for v := int32(0); v < g.NumNodes(); v++ {
		pre[v] = v % k
	}
	preCut := partition.EdgeCut(g, pre)
	cfg := FastConfig(k, ClassSocial)
	cfg.Previous = pre
	res, err := run(2, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := partition.EdgeCut(g, res.Part)
	if cut > preCut {
		t.Fatalf("prepartition worsened: %d -> %d", preCut, cut)
	}
	// A hash placement on a community graph is terrible; demand a large
	// improvement, not mere non-worsening.
	if cut*2 > preCut {
		t.Fatalf("prepartition barely improved: %d -> %d", preCut, cut)
	}
	if !partition.IsFeasible(g, res.Part, k, 0.03) {
		t.Fatal("result infeasible")
	}
}

func TestPrepartitionWrongLength(t *testing.T) {
	g := gen.RGG(100, 1)
	cfg := FastConfig(2, ClassMesh)
	cfg.Previous = make([]int32, 5)
	if _, err := run(1, g, cfg); err == nil {
		t.Fatal("expected error for wrong-length prepartition")
	}
}

func TestStatsPopulated(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 15, 9, 0.5, 9)
	res, err := run(2, g, FastConfig(2, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.TotalTime <= 0 || st.Cut <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Comm.MessagesSent == 0 {
		t.Fatal("no communication recorded on a 2-rank run")
	}
	if st.Cut != partition.EdgeCut(g, res.Part) {
		t.Fatalf("stats cut %d != recomputed %d", st.Cut, partition.EdgeCut(g, res.Part))
	}
}

func TestConfigsDiffer(t *testing.T) {
	f := FastConfig(4, ClassSocial)
	e := EcoConfig(4, ClassSocial)
	m := MinimalConfig(4, ClassSocial)
	if f.VCycles != 2 || e.VCycles != 5 || m.VCycles != 1 {
		t.Fatal("V-cycle counts wrong")
	}
	var c Config
	c.K = 2
	c.Class = ClassMesh
	c.normalize()
	if c.SizeFactor != 20000 {
		t.Fatalf("mesh size factor %v", c.SizeFactor)
	}
	c = Config{K: 2}
	c.normalize()
	if c.SizeFactor != 14 {
		t.Fatalf("social size factor %v", c.SizeFactor)
	}
}

func TestRemapBlocks(t *testing.T) {
	// p is ref with blocks renamed 0->2, 1->0, 2->1; remapping must undo it.
	ref := []int32{0, 0, 1, 1, 2, 2}
	p := []int32{2, 2, 0, 0, 1, 1}
	nw := []int64{1, 1, 1, 1, 1, 1}
	remapBlocks(p, ref, 3, nw)
	for i := range p {
		if p[i] != ref[i] {
			t.Fatalf("remap failed at %d: %v vs %v", i, p, ref)
		}
	}

	// Weighted overlap wins: block 0 of p overlaps ref-block 1 with weight
	// 10 vs ref-block 0 with weight 2, so it must take label 1.
	ref = []int32{1, 0, 0}
	p = []int32{0, 0, 0}
	nw = []int64{10, 1, 1}
	remapBlocks(p, ref, 2, nw)
	if p[0] != 1 {
		t.Fatalf("weighted remap picked %d, want 1", p[0])
	}

	// Every block keeps a distinct label even when unmatched.
	p = []int32{0, 1, 2, 3}
	ref = []int32{0, 0, 0, 0}
	remapBlocks(p, ref, 4, []int64{1, 1, 1, 1})
	seen := map[int32]bool{}
	for _, b := range p {
		if b < 0 || b >= 4 || seen[b] {
			t.Fatalf("remap produced invalid labels: %v", p)
		}
		seen[b] = true
	}
}

// TestPrevPartitionStats checks the migration accounting of a
// migration-aware distributed run end to end.
func TestPrevPartitionStats(t *testing.T) {
	g, planted := gen.PlantedPartition(1200, 8, 8, 0.5, 3)
	k := int32(8)
	cfg := MinimalConfig(k, ClassSocial)
	cfg.Previous = planted
	res, err := run(4, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for v, b := range res.Part {
		if b != planted[v] {
			want++
		}
	}
	if res.Stats.MigratedNodes != want {
		t.Errorf("MigratedNodes = %d, recount says %d", res.Stats.MigratedNodes, want)
	}
	if res.Stats.MigrationVolume != want { // unit node weights
		t.Errorf("MigrationVolume = %d, want %d", res.Stats.MigrationVolume, want)
	}
	// A run without Previous reports zero.
	res2, err := run(4, g, MinimalConfig(k, ClassSocial))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.MigratedNodes != 0 || res2.Stats.MigrationVolume != 0 {
		t.Errorf("cold run reported migration: %+v", res2.Stats)
	}
}
