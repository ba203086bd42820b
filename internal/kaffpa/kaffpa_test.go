package kaffpa

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/testutil"
)

func TestFMRefineImprovesBadPartition(t *testing.T) {
	g := gen.DelaunayLike(900, 1)
	n := g.NumNodes()
	p := make([]int32, n)
	for v := int32(0); v < n; v++ {
		p[v] = v % 2
	}
	lmax := partition.Lmax(g.TotalNodeWeight(), 2, 0.03)
	before := partition.EdgeCut(g, p)
	moves := fmRefine(g, p, uniformBounds(2, lmax), 10, 7)
	after := partition.EdgeCut(g, p)
	if moves == 0 || after >= before {
		t.Fatalf("fm: cut %d -> %d (%d moves)", before, after, moves)
	}
	if !partition.IsFeasible(g, p, 2, 0.03) {
		t.Fatal("fm broke balance")
	}
}

func TestFMNeverWorsens(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.RGG(300, seed)
		n := g.NumNodes()
		r := rng.New(seed)
		k := int32(4)
		p := make([]int32, n)
		for v := range p {
			p[v] = r.Int31n(k)
		}
		lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.10)
		before := partition.EdgeCut(g, p)
		fmRefine(g, p, uniformBounds(k, lmax), 5, seed)
		return partition.EdgeCut(g, p) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFMNoOpCases(t *testing.T) {
	g := graph.Path(10)
	p := make([]int32, 10)
	if fmRefine(g, p, []int64{100}, 3, 1) != 0 {
		t.Fatal("k=1 should be a no-op")
	}
	empty := graph.NewBuilder(0).Build()
	if fmRefine(empty, nil, []int64{100, 100}, 3, 1) != 0 {
		t.Fatal("empty graph should be a no-op")
	}
}

func TestGrowBisectionBalanced(t *testing.T) {
	g := gen.DelaunayLike(400, 3)
	total := g.TotalNodeWeight()
	r := rng.New(5)
	target0, lmax := bisectionBounds(total, 2, 0.03)
	p := growBisection(g, target0, r)
	fmRefine(g, p, lmax, 8, r.Uint64())
	bw := partition.BlockWeights(g, p, 2)
	if bw[0] < total*4/10 || bw[0] > total*6/10 {
		t.Fatalf("grossly unbalanced bisection: %v", bw)
	}
}

// TestOddBisectionFMMovesBothWays: at an odd split (k=3, one block against
// two) the FM that polishes a grown bisection must move nodes into either
// side without raising the cut. With one bound derived from side 0's
// target, side 1 starts above it and never receives a node.
func TestOddBisectionFMMovesBothWays(t *testing.T) {
	g, err := gen.ByFamily(gen.FamilyWeb, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	target0, lmax := bisectionBounds(g.TotalNodeWeight(), 3, 0.03)
	for seed := uint64(1); seed <= 3; seed++ {
		r := rng.New(seed)
		p := growBisection(g, target0, r)
		grown := slices.Clone(p)
		before := partition.EdgeCut(g, p)
		fmRefine(g, p, lmax, 8, r.Uint64())
		var into [2]int
		for v := range p {
			if p[v] != grown[v] {
				into[p[v]]++
			}
		}
		if after := partition.EdgeCut(g, p); into[0] == 0 || into[1] == 0 || after > before {
			t.Fatalf("seed %d: %d nodes moved into side 0, %d into side 1, cut %d -> %d", seed, into[0], into[1], before, after)
		}
	}
}

func TestRecursiveBisectCoversBlocks(t *testing.T) {
	g := gen.RGG(500, 4)
	r := rng.New(9)
	for _, k := range []int32{2, 3, 5, 8} {
		p := recursiveBisect(g, k, 0.03, r)
		seen := make(map[int32]bool)
		for _, b := range p {
			if b < 0 || b >= k {
				t.Fatalf("k=%d: block %d out of range", k, b)
			}
			seen[b] = true
		}
		if int32(len(seen)) != k {
			t.Fatalf("k=%d: only %d blocks used", k, len(seen))
		}
	}
}

func TestPartitionPathK2(t *testing.T) {
	g := graph.Path(100)
	p, err := Partition(g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Evaluate(g, p, 2, 0.03)
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep)
	}
	// A path's optimal bipartition cuts one edge; allow slack but demand
	// near-optimality.
	if rep.Cut > 3 {
		t.Fatalf("path cut %d, want <= 3", rep.Cut)
	}
}

func TestPartitionQualityVsRandom(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 12, 10, 0.5, 6)
	k := int32(4)
	p, err := Partition(g, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	if !partition.IsFeasible(g, p, k, 0.03) {
		t.Fatalf("infeasible partition, imbalance %v", partition.Imbalance(g, p, k))
	}
	cut := partition.EdgeCut(g, p)
	// Random baseline: expected cut ~ (1 - 1/k) * total edge weight.
	r := rng.New(1)
	rp := make([]int32, g.NumNodes())
	for v := range rp {
		rp[v] = r.Int31n(k)
	}
	randCut := partition.EdgeCut(g, rp)
	if cut*3 > randCut {
		t.Fatalf("multilevel cut %d not well below random cut %d", cut, randCut)
	}
}

func TestPartitionFeasibleAcrossFamilies(t *testing.T) {
	fams := []gen.Family{gen.FamilyRGG, gen.FamilyDelaunay, gen.FamilyBA, gen.FamilyWeb}
	for _, fam := range fams {
		g, err := gen.ByFamily(fam, 1200, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int32{2, 7} {
			cfg := DefaultConfig(k)
			cfg.Seed = 3
			p, err := Partition(g, cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", fam, k, err)
			}
			if err := testutil.ValidatePartition(g, p, k); err != nil {
				t.Fatalf("%s k=%d: %v", fam, k, err)
			}
			if !partition.IsFeasible(g, p, k, 0.03) {
				t.Errorf("%s k=%d infeasible (imbalance %.4f)", fam, k,
					partition.Imbalance(g, p, k))
			}
		}
	}
}

func TestPartitionK1AndEmpty(t *testing.T) {
	g := gen.RGG(100, 1)
	p, err := Partition(g, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatal("k=1 must assign everything to block 0")
		}
	}
	empty := graph.NewBuilder(0).Build()
	if p, err := Partition(empty, DefaultConfig(2)); err != nil || len(p) != 0 {
		t.Fatalf("empty graph: %v %v", p, err)
	}
}

func TestPartitionInvalidConfig(t *testing.T) {
	g := graph.Path(10)
	if _, err := Partition(g, Config{K: 0}); err == nil {
		t.Fatal("expected error for k=0")
	}
	cfg := DefaultConfig(2)
	cfg.Constraint = make([]int32, 3)
	if _, err := Partition(g, cfg); err == nil {
		t.Fatal("expected error for wrong-length constraint")
	}
	cfg = DefaultConfig(2)
	cfg.InitialPartition = make([]int32, 3)
	if _, err := Partition(g, cfg); err == nil {
		t.Fatal("expected error for wrong-length initial partition")
	}
}

func TestCompositeConstraint(t *testing.T) {
	p1 := []int32{0, 0, 1, 1}
	p2 := []int32{0, 1, 0, 1}
	c := CompositeConstraint(p1, p2, 2)
	// All four combinations must be distinct.
	seen := make(map[int32]bool)
	for _, v := range c {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Fatalf("composite labels %v", c)
	}
}

// TestCompositeConstraintLargeK: p1*k+p2 leaves int32 above k = 65,536; at
// k = 70,000 the pairs (61357, 0) and (0, 22704) both came out as 22,704.
// Distinct pairs must keep distinct labels, equal pairs share one, and every
// label stays below n.
func TestCompositeConstraintLargeK(t *testing.T) {
	p1 := []int32{61357, 0, 61357, 5}
	p2 := []int32{0, 22704, 0, 69999}
	c := CompositeConstraint(p1, p2, 70000)
	if c[0] == c[1] || c[0] != c[2] || c[3] == c[0] || c[3] == c[1] {
		t.Fatalf("composite labels %v for pairs %v/%v", c, p1, p2)
	}
	for _, l := range c {
		if l < 0 || int(l) >= len(c) {
			t.Fatalf("label %d outside [0, %d): %v", l, len(c), c)
		}
	}
}

// The combine guarantee from §II-C: with the parents' cut edges forbidden
// from contraction and the better parent applied at the coarsest level, the
// offspring is at least as good as the better parent.
func TestCombineNeverWorseThanBetterParent(t *testing.T) {
	g, _ := gen.PlantedPartition(1500, 10, 8, 0.8, 3)
	k := int32(4)
	mk := func(seed uint64) []int32 {
		cfg := DefaultConfig(k)
		cfg.Seed = seed
		p, err := Partition(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := mk(10)
	p2 := mk(20)
	c1 := partition.EdgeCut(g, p1)
	c2 := partition.EdgeCut(g, p2)
	better := p1
	betterCut := c1
	if c2 < c1 {
		better, betterCut = p2, c2
	}
	cfg := DefaultConfig(k)
	cfg.Seed = 30
	cfg.Constraint = CompositeConstraint(p1, p2, k)
	cfg.InitialPartition = better
	child, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	childCut := partition.EdgeCut(g, child)
	if childCut > betterCut {
		t.Fatalf("offspring cut %d worse than better parent %d", childCut, betterCut)
	}
	if !partition.IsFeasible(g, child, k, 0.03) {
		t.Fatal("offspring infeasible")
	}
}

func TestPartitionDeterminism(t *testing.T) {
	g := gen.RGG(800, 12)
	cfg := DefaultConfig(4)
	cfg.Seed = 77
	a, _ := Partition(g, cfg)
	b, _ := Partition(g, cfg)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}
