package gen

import (
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
)

func TestRGGBasic(t *testing.T) {
	g := RGG(2000, 1)
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's radius sits exactly at the connectivity threshold
	// (pi*r^2*n ~ ln n), so at this small n we check for a giant component
	// rather than strict connectivity.
	comp, cnt := graph.ConnectedComponents(g)
	sizes := make([]int32, cnt)
	for _, c := range comp {
		sizes[c]++
	}
	var giant int32
	for _, s := range sizes {
		if s > giant {
			giant = s
		}
	}
	if giant < g.NumNodes()*95/100 {
		t.Fatalf("giant component has %d of %d nodes", giant, g.NumNodes())
	}
	// Expected average degree ~ n * pi * r^2 = pi * 0.55^2 * ln n ~ 7.2.
	avg := float64(2*g.NumEdges()) / float64(g.NumNodes())
	if avg < 4 || avg > 12 {
		t.Fatalf("average degree %v outside plausible range", avg)
	}
}

func TestRGGDeterminism(t *testing.T) {
	a := RGG(500, 7)
	b := RGG(500, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	c := RGG(500, 8)
	if a.NumEdges() == c.NumEdges() {
		t.Log("different seeds produced same edge count (possible but unlikely)")
	}
}

func TestRGGTiny(t *testing.T) {
	for _, n := range []int32{0, 1, 2, 3} {
		g := RGG(n, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	if n != 1<<12 {
		t.Fatalf("n = %d", n)
	}
	degs := make([]int, n)
	for v := int32(0); v < n; v++ {
		degs[v] = int(g.Degree(v))
	}
	sort.Ints(degs)
	maxDeg := degs[n-1]
	med := degs[n/2]
	// Heavy tail: the max degree should dwarf the median.
	if med > 0 && maxDeg < 20*med {
		t.Fatalf("degree distribution not heavy-tailed: max=%d median=%d", maxDeg, med)
	}
	if maxDeg < 50 {
		t.Fatalf("max degree %d too small for RMAT scale 12", maxDeg)
	}
}

// TestBarabasiAlbertDeterministic: the attach set used to be a map ranged
// into the degree-proportional sampling pool, so the same (n, m, seed) gave
// a different graph from run to run.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	want := BarabasiAlbert(2000, 5, 42).Fingerprint()
	for i := 1; i < 20; i++ {
		if got := BarabasiAlbert(2000, 5, 42).Fingerprint(); got != want {
			t.Fatalf("build %d: fingerprint %s, first build %s", i, got, want)
		}
	}
}

func TestPlantedPartitionCommunities(t *testing.T) {
	g, comm := PlantedPartition(4000, 16, 12, 0.5, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(comm) != 4000 {
		t.Fatalf("community labels length %d", len(comm))
	}
	// Count intra vs inter community edge endpoints: community structure
	// means the majority of edges are internal.
	var intra, inter int64
	for v := int32(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if comm[u] == comm[v] {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra < 5*inter {
		t.Fatalf("intra=%d inter=%d: planted structure too weak", intra, inter)
	}
}

func TestMesh3D(t *testing.T) {
	g := Mesh3D(5, 6, 7)
	if g.NumNodes() != 210 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	want := int64(4*6*7 + 5*5*7 + 5*6*6)
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWebCrawlLike(t *testing.T) {
	g := WebCrawlLike(10000, 50, 10, 0.4, 100, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Half the nodes are the degree-one fringe.
	leaves := 0
	for v := int32(0); v < g.NumNodes(); v++ {
		if g.Degree(v) == 1 {
			leaves++
		}
	}
	if leaves < 4000 {
		t.Fatalf("only %d degree-1 leaves; fringe missing", leaves)
	}
	// Hubs have high degree (fringe/hubCount ≈ 50 leaves each on average).
	if md := g.MaxDegree(); md < 40 {
		t.Fatalf("max degree %d; hubs missing", md)
	}
}

func TestWebCrawlLikeDeterminism(t *testing.T) {
	a := WebCrawlLike(2000, 20, 8, 0.4, 40, 9)
	b := WebCrawlLike(2000, 20, 8, 0.4, 40, 9)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestWebCrawlLikeEdgeCases(t *testing.T) {
	for _, n := range []int32{10, 100} {
		g := WebCrawlLike(n, 4, 4, 0.5, 2, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestByFamilyAll(t *testing.T) {
	for _, f := range []Family{FamilyRGG, FamilyDelaunay, FamilyRMAT, FamilyBA, FamilyWeb, FamilyMesh3D, FamilyGrid} {
		g, err := ByFamily(f, 1000, 11)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if g.NumNodes() < 100 {
			t.Fatalf("%s: too few nodes (%d)", f, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func TestByFamilyUnknown(t *testing.T) {
	if _, err := ByFamily("nope", 100, 1); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

func TestRGGRadiusFormula(t *testing.T) {
	// Sanity check the constant in the generator against the paper: radius
	// = 0.55*sqrt(ln n / n).
	n := 10000.0
	r := 0.55 * math.Sqrt(math.Log(n)/n)
	if r <= 0 || r >= 1 {
		t.Fatalf("radius %v out of (0,1)", r)
	}
}

func TestPerturb(t *testing.T) {
	g, _ := PlantedPartition(2000, 20, 8, 0.5, 1)
	g2 := Perturb(g, 0.05, 9)
	if g2.NumNodes() != g.NumNodes() {
		t.Fatalf("node count changed: %d -> %d", g.NumNodes(), g2.NumNodes())
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("perturbed graph invalid: %v", err)
	}
	if g2.Fingerprint() == g.Fingerprint() {
		t.Fatal("5% churn left the graph identical")
	}
	// Edge count stays within a few percent (drops are re-inserted; only
	// merges with existing edges shrink the count).
	lo, hi := g.NumEdges()*93/100, g.NumEdges()*107/100
	if m := g2.NumEdges(); m < lo || m > hi {
		t.Fatalf("edge count drifted too far: %d -> %d", g.NumEdges(), m)
	}
	// Count differing adjacency entries to confirm actual churn happened.
	if Perturb(g, 0, 9).Fingerprint() != g.Fingerprint() {
		t.Fatal("frac=0 should be a structural no-op")
	}
}

func TestPerturbDeltasDeterministicAndEquivalent(t *testing.T) {
	g, _ := PlantedPartition(1500, 15, 8, 0.5, 3)
	d1 := PerturbDeltas(g, 0.05, 11)
	d2 := PerturbDeltas(g, 0.05, 11)
	if len(d1) == 0 || len(d1) != len(d2) {
		t.Fatalf("delta stream not deterministic: %d vs %d deltas", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delta %d differs across runs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	// Removals come first (scan order), then one insertion per removal.
	removes, adds := 0, 0
	for i, d := range d1 {
		if d.Add {
			adds++
		} else {
			if adds > 0 {
				t.Fatalf("delta %d: removal after an insertion", i)
			}
			removes++
		}
	}
	if adds != removes {
		t.Fatalf("adds=%d removes=%d, want equal", adds, removes)
	}
	// Perturb must be exactly ApplyEdgeDeltas over PerturbDeltas.
	if ApplyEdgeDeltas(g, d1).Fingerprint() != Perturb(g, 0.05, 11).Fingerprint() {
		t.Fatal("ApplyEdgeDeltas(PerturbDeltas) differs from Perturb")
	}
	// Applying no deltas is a structural no-op.
	if ApplyEdgeDeltas(g, nil).Fingerprint() != g.Fingerprint() {
		t.Fatal("empty delta stream changed the graph")
	}
}
