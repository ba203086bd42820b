package graph

import (
	"slices"
	"testing"
)

func fpGraph(t *testing.T, edges [][2]int32, n int32) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestFingerprintDeterministic(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	g1 := fpGraph(t, edges, 4)
	g2 := fpGraph(t, edges, 4)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("identical graphs produced different fingerprints")
	}
	if got := len(g1.Fingerprint()); got != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", got)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpGraph(t, [][2]int32{{0, 1}, {1, 2}}, 4)
	fp := base.Fingerprint()

	// Extra edge changes the hash.
	moreEdges := fpGraph(t, [][2]int32{{0, 1}, {1, 2}, {2, 3}}, 4)
	if moreEdges.Fingerprint() == fp {
		t.Errorf("adding an edge did not change the fingerprint")
	}

	// Extra isolated node changes the hash.
	moreNodes := fpGraph(t, [][2]int32{{0, 1}, {1, 2}}, 5)
	if moreNodes.Fingerprint() == fp {
		t.Errorf("adding a node did not change the fingerprint")
	}

	// Changed edge weight changes the hash.
	b := NewBuilder(4)
	b.AddEdgeW(0, 1, 7)
	b.AddEdge(1, 2)
	if b.Build().Fingerprint() == fp {
		t.Errorf("changing an edge weight did not change the fingerprint")
	}

	// Changed node weight changes the hash.
	b2 := NewBuilder(4)
	b2.AddEdge(0, 1)
	b2.AddEdge(1, 2)
	b2.SetNodeWeight(3, 9)
	if b2.Build().Fingerprint() == fp {
		t.Errorf("changing a node weight did not change the fingerprint")
	}
}

func TestFingerprintSurvivesRoundTrip(t *testing.T) {
	g := fpGraph(t, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, 4)
	c := FromCSR(slices.Clone(g.XAdj), slices.Clone(g.Adj), slices.Clone(g.AdjW), slices.Clone(g.NW))
	if g.Fingerprint() != c.Fingerprint() {
		t.Fatalf("clone fingerprint differs from original")
	}
}
