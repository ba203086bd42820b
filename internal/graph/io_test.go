package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestMetisRoundTrip(t *testing.T) {
	g := randomGraph(25, 80, 9)
	var buf bytes.Buffer
	if err := WriteMetis(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMetis(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %v -> %v", g, g2)
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		if g2.NW[v] != g.NW[v] {
			t.Fatalf("node weight changed at %d", v)
		}
		a, b := g.Neighbors(v), g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("neighbour count changed at %d", v)
		}
		for i := range a {
			if a[i] != b[i] || g.EdgeWeights(v)[i] != g2.EdgeWeights(v)[i] {
				t.Fatalf("adjacency changed at node %d slot %d", v, i)
			}
		}
	}
}

func TestReadMetisUnweighted(t *testing.T) {
	in := "% comment\n3 2\n2\n1 3\n2\n"
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadMetisNodeWeightsOnly(t *testing.T) {
	in := "2 1 10\n5 2\n7 1\n"
	g, err := ReadMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NW[0] != 5 || g.NW[1] != 7 {
		t.Fatalf("node weights: %v", g.NW)
	}
}

func TestReadMetisErrors(t *testing.T) {
	cases := []string{
		"",                   // no header
		"abc def\n",          // bad header
		"2 1 99\n2\n1\n",     // unsupported fmt
		"2 5\n2\n1\n",        // edge count mismatch
		"3 2\n2\n1 9\n2\n",   // neighbour out of range
		"2 1 10\n0 2\n1 1\n", // non-positive node weight
		"2 1 1\n2\n1\n",      // missing edge weight
	}
	for i, in := range cases {
		if _, err := ReadMetis(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestReadMetisTruncated(t *testing.T) {
	in := "4 3\n2\n1 3\n"
	if _, err := ReadMetis(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for truncated file")
	}
}

// FuzzReadMetis feeds arbitrary bytes to ReadMetis, the parser a client's
// graph upload reaches. Every input must either fail with an error or give
// a graph that validates and survives WriteMetis → ReadMetis with the same
// fingerprint. Inputs that once broke it are in testdata/fuzz.
func FuzzReadMetis(f *testing.F) {
	var weighted bytes.Buffer
	if err := WriteMetis(&weighted, randomGraph(25, 80, 9)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		weighted.String(),
		"% comment\n3 2\n2\n1 3\n2\n",
		"2 1 10\n5 2\n7 1\n",
		"4 3\n2\n1 3\n",
		"2 1 99\n2\n1\n",
		"3 2\n2\n1 9\n2\n",
		"3 3\n3 2\n3 1\n2 1\n",                   // rows out of order
		"3 3 1\n2 4 2 3 3 1\n1 7 3 1\n1 1 2 1\n", // a duplicate edge, merged
		"3 1 11\n1 2 1 2 1 1 2\n1 1 2\n1\n",      // a duplicate and a self-loop
		"2147483647 0\n1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadMetis(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var out bytes.Buffer
		if err := WriteMetis(&out, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadMetis(&out)
		if err != nil {
			t.Fatalf("rereading the written graph: %v", err)
		}
		if a, b := g.Fingerprint(), g2.Fingerprint(); a != b {
			t.Fatalf("fingerprint %s after the round trip, %s before", b, a)
		}
	})
}
