package gen_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/testutil"
)

// Tests that use the fixtures in internal/testutil, which imports this
// package and so cannot be imported from its own tests.

func TestDelaunayLike(t *testing.T) {
	g := gen.DelaunayLike(1024, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !testutil.IsConnected(g) {
		t.Fatal("mesh not connected")
	}
	// Triangulated grid: m = 2*side*(side-1) + (side-1)^2; avg degree < 6.
	avg := float64(2*g.NumEdges()) / float64(g.NumNodes())
	if avg < 4 || avg > 6 {
		t.Fatalf("average degree %v, want ~5.9", avg)
	}
	if md := g.MaxDegree(); md > 8 {
		t.Fatalf("max degree %d too large for a planar mesh", md)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 4, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !testutil.IsConnected(g) {
		t.Fatal("BA graph should be connected")
	}
	// Preferential attachment: maximum degree grows like sqrt(n), far above
	// the mean of ~2*mAttach.
	if md := g.MaxDegree(); md < 30 {
		t.Fatalf("max degree %d; BA graph should have hubs", md)
	}
}

func TestStarOfCliques(t *testing.T) {
	g := testutil.StarOfCliques(10, 8, 1)
	if g.NumNodes() != 81 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !testutil.IsConnected(g) {
		t.Fatal("star of cliques should be connected")
	}
	if g.Degree(0) != 10 {
		t.Fatalf("hub degree %d", g.Degree(0))
	}
}
