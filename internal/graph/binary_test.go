package graph

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(60, 240, seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.XAdj {
			if g.XAdj[i] != g2.XAdj[i] {
				return false
			}
		}
		for i := range g.Adj {
			if g.Adj[i] != g2.Adj[i] || g.AdjW[i] != g2.AdjW[i] {
				return false
			}
		}
		for i := range g.NW {
			if g.NW[i] != g2.NW[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 0 {
		t.Fatal("empty graph round trip failed")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	g := randomGraph(30, 90, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{8, 32, len(full) / 2, len(full) - 4} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryRejectsCorruptedPayload(t *testing.T) {
	g := Path(10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt an adjacency entry beyond the node range; Validate catches it.
	data[len(data)-8*int(g.NumNodes())-8*len(g.Adj)-4] = 0xff
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("corrupted payload accepted")
	}
}

// TestReadBinaryStarIsLinear: a star with 200 000 leaves reads back in well
// under 2 s. A symmetry check that scans the neighbour's row for each arc
// takes the centre's row 200 000 times, about 17 s.
func TestReadBinaryStarIsLinear(t *testing.T) {
	const leaves = 200_000
	b := NewBuilder(leaves + 1)
	for v := int32(1); v <= leaves; v++ {
		b.AddEdge(0, v)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	g, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("reading a star with %d leaves took %v, want under 2s", leaves, took)
	}
	if g.Degree(0) != leaves {
		t.Fatalf("centre degree %d, want %d", g.Degree(0), leaves)
	}
}

// FuzzReadBinary feeds arbitrary bytes to ReadBinary, the parser a binary
// graph upload reaches. A payload that decodes must be accepted or rejected
// by Validate as by the quadratic validateOracle, with the same error.
// Every input must either fail with an error or give a graph that
// validates, that WriteBinary writes back as the bytes it was
// read from, and that survives WriteBinary → ReadBinary with the same
// fingerprint. The all-ones seed is written from explicit ones and read
// back without stored weights, so a writer that skipped their section
// would fail on it. Inputs that once broke it are in testdata/fuzz.
func FuzzReadBinary(f *testing.F) {
	grid := Grid2D(3, 4)
	ones := make([]int64, len(grid.Adj))
	for i := range ones {
		ones[i] = 1
	}
	allOnes := FromCSR(grid.XAdj, grid.Adj, ones, grid.NW)
	for _, g := range []*Graph{NewBuilder(0).Build(), randomGraph(1, 0, 1), randomGraph(12, 30, 4), allOnes} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if raw, err := decodeBinary(bytes.NewReader(in)); err == nil {
			if got, want := raw.Validate(), validateOracle(raw); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Validate: %v; the quadratic check: %v", got, want)
			}
		}
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatal(err)
		}
		// The bytes read: the header, n+1 xadj words, 2m adj and adjw words
		// and n node weights; anything after them is not part of the graph.
		n, m2 := len(g.NW), len(g.Adj)
		if read := in[:32+8*(n+1)+12*m2+8*n]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("WriteBinary wrote %d bytes that are not the %d read", out.Len(), len(read))
		}
		g2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("rereading the written graph: %v", err)
		}
		if a, b := g.Fingerprint(), g2.Fingerprint(); a != b {
			t.Fatalf("fingerprint %s after the round trip, %s before", b, a)
		}
	})
}
