package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// writeMetisOracle is WriteMetis as it was before it appended digits into a
// line buffer: one formatted string per number. WriteMetis must write the
// same bytes.
func writeMetisOracle(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d 11\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		bw.WriteString(strconv.FormatInt(g.NW[v], 10))
		nbrs := g.Neighbors(v)
		ws := g.EdgeWeights(v)
		for i, u := range nbrs {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(int64(u)+1, 10))
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(ws[i], 10))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readMetisOracle is ReadMetis as it was before it parsed from the
// scanner's bytes: strings.Fields and strconv.ParseInt on each line, edges
// through a Builder. ReadMetis must accept and reject the same inputs and
// give the same graphs.
func readMetisOracle(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line, err := nextDataLineOracle(sc, true)
	if err != nil {
		return nil, fmt.Errorf("graph: missing METIS header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: malformed METIS header %q", line)
	}
	n64, err := strconv.ParseInt(fields[0], 10, 32)
	if err != nil || n64 < 0 {
		return nil, fmt.Errorf("graph: bad node count %q", fields[0])
	}
	m64, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("graph: bad edge count: %w", err)
	}
	hasNW, hasEW := false, false
	if len(fields) >= 3 {
		switch fields[2] {
		case "0", "00", "000":
		case "1", "001":
			hasEW = true
		case "10", "010":
			hasNW = true
		case "11", "011":
			hasNW, hasEW = true, true
		default:
			return nil, fmt.Errorf("graph: unsupported METIS fmt %q", fields[2])
		}
	}
	n := int32(n64)
	b := &Builder{n: n}
	for v := int32(0); v < n; v++ {
		line, err := nextDataLineOracle(sc, false)
		if err != nil {
			return nil, fmt.Errorf("graph: missing line for node %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i, nw, upSum := 0, int64(1), int64(0)
		if hasNW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("graph: node %d: missing node weight", v+1)
			}
			nw, err = strconv.ParseInt(toks[0], 10, 64)
			if err != nil || nw <= 0 {
				return nil, fmt.Errorf("graph: node %d: bad node weight %q", v+1, toks[0])
			}
			i = 1
		}
		b.nw = append(b.nw, nw)
		for i < len(toks) {
			u, err := strconv.ParseInt(toks[i], 10, 32)
			if err != nil || u < 1 || u > n64 {
				return nil, fmt.Errorf("graph: node %d: bad neighbour %q", v+1, toks[i])
			}
			i++
			w := int64(1)
			if hasEW {
				if i >= len(toks) {
					return nil, fmt.Errorf("graph: node %d: missing edge weight", v+1)
				}
				w, err = strconv.ParseInt(toks[i], 10, 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("graph: node %d: bad edge weight %q", v+1, toks[i])
				}
				i++
			}
			if int32(u-1) > v {
				if w > math.MaxInt64-upSum {
					return nil, fmt.Errorf("graph: node %d: edge weights overflow int64", v+1)
				}
				upSum += w
				b.AddEdgeW(v, int32(u-1), w)
			}
		}
	}
	g := b.Build()
	if g.NumEdges() != m64 {
		return nil, fmt.Errorf("graph: header claims %d edges, parsed %d", m64, g.NumEdges())
	}
	return g, nil
}

func nextDataLineOracle(sc *bufio.Scanner, skipEmpty bool) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" && skipEmpty || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

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
	if g.AdjW != nil {
		t.Fatalf("unit weights stored: %v", g.AdjW)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadMetisIsolatedNode: in the node section an empty line is a node
// without neighbours, as METIS writes one in an unweighted file; with node
// weights declared the line lacks its weight.
func TestReadMetisIsolatedNode(t *testing.T) {
	g, err := ReadMetis(strings.NewReader("3 1\n2\n1\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 || g.Degree(2) != 0 {
		t.Fatalf("got n=%d m=%d, degree of node 3 %d; want 3, 1, 0", g.NumNodes(), g.NumEdges(), g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMetis(strings.NewReader("3 1 10\n1 2\n1 1\n\n")); err == nil || !strings.Contains(err.Error(), "missing node weight") {
		t.Fatalf("weighted file with an empty node line: err = %v, want a missing node weight", err)
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

// TestWriteMetisBytesUnchanged: on random weighted and unit-weight graphs
// WriteMetis writes the bytes the old writer wrote.
func TestWriteMetisBytesUnchanged(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		g := randomGraph(int32(5+seed*7), int(seed*31), seed)
		if seed%2 == 0 {
			g = FromCSR(g.XAdj, g.Adj, nil, g.NW)
		}
		var got, want bytes.Buffer
		if err := WriteMetis(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeMetisOracle(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: WriteMetis wrote %d bytes, the old writer %d, and they differ", seed, got.Len(), want.Len())
		}
	}
}

// FuzzReadMetis feeds arbitrary bytes to ReadMetis, the parser a client's
// graph upload reaches, and to readMetisOracle. Both must fail with the same
// error, or give graphs with the same fingerprint and the same absence of
// stored weights. An accepted graph must validate, be written by WriteMetis
// as the old writer wrote it, and survive WriteMetis → ReadMetis with the
// same fingerprint and, for a graph without stored weights, again without
// them. Inputs that once broke it are in testdata/fuzz.
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
		"3 1\n2\n1\n\n",                                         // node 3 isolated
		"4 4\n2 4\n1 3\n2 4\n1 3\n",                             // unweighted: no stored weights
		"3 2 1\n+2 +5\n1 5 3 1\n2 1\n",                          // signed tokens
		"3\t2\n2\t\n1\t3\n\t2\n",                                // tabs
		"3 2\r\n2\r\n1 3\r\n2\r\n",                              // CRLF
		"3 2 1\n2\u00a05\n1 5\u00a03 1\n2\u00a01\n",             // U+00A0 separators
		"2 1 1\n2 1000000000000000000\n1 1000000000000000000\n", // a 19-digit token
		"3 2\n2\n% a comment in the body\n1 3\n  %another\n2\n",
		"3 1\n\n3\n2\n", // an empty row
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadMetis(bytes.NewReader(in))
		want, wantErr := readMetisOracle(bytes.NewReader(in))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("ReadMetis: %v; the old reader: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if a, b := g.Fingerprint(), want.Fingerprint(); a != b || (g.AdjW == nil) != (want.AdjW == nil) {
			t.Fatalf("ReadMetis gave fingerprint %s, stored weights %v; the old reader %s, %v",
				a, g.AdjW != nil, b, want.AdjW != nil)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph is invalid: %v", err)
		}
		var out, oldOut bytes.Buffer
		if err := WriteMetis(&out, g); err != nil {
			t.Fatal(err)
		}
		if err := writeMetisOracle(&oldOut, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), oldOut.Bytes()) {
			t.Fatalf("WriteMetis wrote %q, the old writer %q", out.Bytes(), oldOut.Bytes())
		}
		g2, err := ReadMetis(&out)
		if err != nil {
			t.Fatalf("rereading the written graph: %v", err)
		}
		if a, b := g.Fingerprint(), g2.Fingerprint(); a != b {
			t.Fatalf("fingerprint %s after the round trip, %s before", b, a)
		}
		if (g.AdjW == nil) != (g2.AdjW == nil) {
			t.Fatalf("stored weights: %v before the round trip, %v after", g.AdjW != nil, g2.AdjW != nil)
		}
	})
}
