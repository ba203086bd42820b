package parhip

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// runSession is the tests' one-call form of New + Run.
func runSession(g *Graph, opts ...Option) (Result, error) {
	p, err := New(g, opts...)
	if err != nil {
		return Result{}, err
	}
	return p.Run(context.Background())
}

func TestPartitionPublicAPI(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 20, 10, 0.5, 1)
	res, err := runSession(g, WithK(4), WithPEs(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	part := res.Partition.assign
	if len(part) != int(g.NumNodes()) {
		t.Fatalf("partition length %d", len(part))
	}
	if !res.Feasible {
		t.Fatalf("infeasible: imbalance %.4f", res.Imbalance)
	}
	if res.Cut != EdgeCut(g, part) {
		t.Fatalf("reported cut %d != recomputed %d", res.Cut, EdgeCut(g, part))
	}
	if !IsFeasible(g, part, 4, DefaultEps) {
		t.Fatal("IsFeasible disagrees with Feasible")
	}
}

func TestPartitionModes(t *testing.T) {
	g, _ := gen.PlantedPartition(1500, 12, 9, 0.5, 2)
	for _, m := range []Mode{Fast, Eco, Minimal} {
		res, err := runSession(g, WithK(2), WithPEs(2), WithMode(m), WithSeed(1))
		if err != nil {
			t.Fatalf("mode %d: %v", m, err)
		}
		if !res.Feasible {
			t.Errorf("mode %d infeasible", m)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := runSession(nil, WithK(2)); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := NewBuilder(4)
	g.AddEdge(0, 1)
	if _, err := runSession(g.Build(), WithK(0)); err == nil {
		t.Fatal("k=0 accepted")
	}
	ctx := context.Background()
	if _, err := RunBaseline(ctx, nil, 0, WithK(2)); err == nil {
		t.Fatal("nil graph accepted by baseline")
	}
	if _, err := RunBaseline(ctx, testutil.Star(5), 0, WithK(0)); err == nil {
		t.Fatal("k=0 accepted by baseline")
	}
}

func TestBaselinePublicAPI(t *testing.T) {
	g := gen.DelaunayLike(2000, 3)
	res, err := RunBaseline(context.Background(), g, 0, WithK(2), WithPEs(2), WithClass(Mesh), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("baseline infeasible: %.4f", res.Imbalance)
	}
}

// TestBaselineStatsDetail locks in that the baseline's Result carries the
// same Stats detail as the main partitioner — hierarchy levels with node
// AND edge counts, phase timings, the balance bound, the world's message
// and transport counters — so bench comparisons are apples-to-apples (not
// just Cut/Imbalance/Feasible).
func TestBaselineStatsDetail(t *testing.T) {
	g := gen.DelaunayLike(3000, 5)
	res, err := RunBaseline(context.Background(), g, 0, WithK(4), WithPEs(2), WithClass(Mesh), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if len(st.Levels) < 2 {
		t.Fatalf("baseline stats carry %d hierarchy levels, want >= 2", len(st.Levels))
	}
	if st.Levels[0].N != int64(g.NumNodes()) || st.Levels[0].M != g.NumEdges() {
		t.Errorf("finest level = %+v, want n=%d m=%d", st.Levels[0], g.NumNodes(), g.NumEdges())
	}
	for i, lv := range st.Levels {
		if lv.M <= 0 || i > 0 && lv.N >= st.Levels[i-1].N {
			t.Errorf("level %d not coarser or missing edges: %+v", i, st.Levels)
		}
	}
	if st.Comm.MessagesSent <= 0 || st.Transport.FramesSent <= 0 {
		t.Errorf("2-rank baseline reports no traffic: %d messages, %d frames",
			st.Comm.MessagesSent, st.Transport.FramesSent)
	}
	if st.TotalTime <= 0 || st.CoarsenTime <= 0 || st.InitTime <= 0 || st.RefineTime <= 0 {
		t.Errorf("missing phase timings: %+v", st)
	}
	if st.Lmax <= 0 || st.MaxBlockWeight <= 0 || st.MaxBlockWeight > st.Lmax {
		t.Errorf("balance bound fields inconsistent: Lmax=%d MaxBlockWeight=%d", st.Lmax, st.MaxBlockWeight)
	}
	if st.Cut != res.Cut {
		t.Errorf("Stats.Cut %d != Result.Cut %d", st.Cut, res.Cut)
	}
	if res.Partition == nil || res.Partition.Cut() != res.Cut {
		t.Error("baseline result lacks a consistent Partition value")
	}
}

func TestMetisRoundTripPublic(t *testing.T) {
	g := gen.RGG(300, 4)
	var buf bytes.Buffer
	if err := WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
}

func TestMetricsExports(t *testing.T) {
	g := NewBuilder(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	gg := g.Build()
	raw := []int32{0, 0, 1, 1}
	if EdgeCut(gg, raw) != 1 {
		t.Fatal("EdgeCut wrong")
	}
	p, err := NewPartition(gg, raw, 2, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommunicationVolume(gg) != 2 {
		t.Fatal("CommunicationVolume wrong")
	}
	if p.Imbalance() != 0 {
		t.Fatal("Imbalance wrong")
	}
}

// TestCheckersRejectOtherGraphSizes: the public checkers that take a
// caller's graph index the assignment by its node IDs, so a graph of any
// other size must be refused, whether it is smaller (a silently wrong
// answer) or larger (an index panic deep inside).
func TestCheckersRejectOtherGraphSizes(t *testing.T) {
	raw := []int32{0, 0, 1, 1}
	p, err := NewPartition(graph.Path(4), raw, 2, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int32{3, 6} {
		g := graph.Path(n)
		want := fmt.Sprintf("assignment has 4 entries, graph has %d nodes", n)
		for name, call := range map[string]func(){
			"Boundary":            func() { p.Boundary(g) },
			"CommunicationVolume": func() { p.CommunicationVolume(g) },
			"EdgeCut":             func() { EdgeCut(g, raw) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Errorf("%s on a %d-node graph: panic %q, want one containing %q", name, n, msg, want)
					}
				}()
				call()
			}()
		}
		if IsFeasible(g, raw, 2, 0.03) {
			t.Errorf("IsFeasible accepted 4 entries for a %d-node graph", n)
		}
	}
	if IsFeasible(graph.Path(3), []int32{0, 1, 0, 1, 0, 1}, 2, 0.03) {
		t.Error("IsFeasible accepted 6 entries for a 3-node graph")
	}
}

func TestPartitionWithObjective(t *testing.T) {
	g, _ := gen.PlantedPartition(1200, 10, 9, 0.5, 7)
	res, err := runSession(g, WithK(4), WithPEs(2), WithSeed(3), WithObjective(MinimizeCommVolume))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible under comm-volume objective")
	}
}

func TestSettingsDefaults(t *testing.T) {
	g := testutil.Star(5)
	p, err := New(g, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.s.pes != DefaultPEs {
		t.Fatalf("default PEs %d", p.s.pes)
	}
	if cfg := p.CoreConfig(); cfg.VCycles != 2 || cfg.Eps != DefaultEps || cfg.Seed != DefaultSeed {
		t.Fatalf("default mode should be Fast (2 V-cycles) with the default eps and seed, got %+v", cfg)
	}
	for mode, want := range map[Mode]int{Eco: 5, Minimal: 1} {
		p, err := New(g, WithK(2), WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.CoreConfig().VCycles; got != want {
			t.Fatalf("mode %d maps to %d V-cycles, want %d", mode, got, want)
		}
	}
}

func TestFingerprintReexport(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	fp := Fingerprint(g)
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q not 64 hex chars", fp)
	}
	if fp != Fingerprint(graph.FromCSR(slices.Clone(g.XAdj), slices.Clone(g.Adj), slices.Clone(g.AdjW), slices.Clone(g.NW))) {
		t.Fatal("clone fingerprint differs")
	}
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1)
	if Fingerprint(b2.Build()) == fp {
		t.Fatal("different graphs share a fingerprint")
	}
}

// TestUnitWeightsMatchExplicitOnes: a graph without stored edge weights is
// the same graph as its CSR with an explicit all-ones AdjW. Both hash and
// serialize alike, and partition alike in fast mode at P = 1, 2, 3 and in
// eco mode at P = 2, so every reader of the unit rows sees whole rows of
// ones.
func TestUnitWeightsMatchExplicitOnes(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"delaunay", gen.DelaunayLike(4096, 7)},
		{"grid", graph.Grid2D(40, 50)},
	} {
		unit := tc.g
		ones := make([]int64, len(unit.Adj))
		for i := range ones {
			ones[i] = 1
		}
		explicit := graph.FromCSR(unit.XAdj, unit.Adj, ones, unit.NW)
		if unit.AdjW != nil {
			t.Fatalf("%s: the generator stored unit weights", tc.name)
		}
		if unit.Fingerprint() != explicit.Fingerprint() {
			t.Errorf("%s: fingerprints differ", tc.name)
		}
		var a, b bytes.Buffer
		if err := WriteBinary(&a, unit); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&b, explicit); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: WriteBinary bytes differ", tc.name)
		}
		runs := []struct {
			mode Mode
			pes  int
		}{{Fast, 1}, {Fast, 2}, {Fast, 3}, {Eco, 2}}
		for _, r := range runs {
			var res [2]Result
			for i, g := range []*Graph{unit, explicit} {
				var err error
				if res[i], err = runSession(g, WithK(4), WithMode(r.mode), WithPEs(r.pes), WithSeed(3)); err != nil {
					t.Fatalf("%s mode %d P=%d: %v", tc.name, r.mode, r.pes, err)
				}
			}
			name := fmt.Sprintf("%s mode %d P=%d", tc.name, r.mode, r.pes)
			if res[0].Cut != res[1].Cut {
				t.Errorf("%s: cut %d without stored weights, %d with ones", name, res[0].Cut, res[1].Cut)
			}
			for v := NodeID(0); v < unit.NumNodes(); v++ {
				if res[0].Partition.Block(v) != res[1].Partition.Block(v) {
					t.Errorf("%s: node %d in block %d without stored weights, %d with ones",
						name, v, res[0].Partition.Block(v), res[1].Partition.Block(v))
					break
				}
			}
		}
	}
}
