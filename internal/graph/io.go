package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteMetis writes g in METIS graph format: a header line "n m fmt" where
// fmt is 11 (node and edge weights), followed by one line per node listing
// "nodeweight (neighbour edgeweight)*" with 1-based neighbour IDs.
func WriteMetis(w io.Writer, g *Graph) error {
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

// ReadMetis parses a graph in METIS format. Supported fmt codes: 0 or
// absent (no weights), 1 (edge weights), 10 (node weights), 11 (both).
// Comment lines starting with '%' are skipped; an empty node line is a node
// without neighbours (or, with node weights, lacks its weight). Memory grows
// with the lines read, never with the header's claims, and the weights one
// line gives its higher-numbered neighbours must sum to at most MaxInt64, so
// no merge of duplicate edges overflows.
func ReadMetis(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line, err := nextDataLine(sc, true)
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
		line, err := nextDataLine(sc, false)
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
			// Each undirected edge appears twice in the file; add it once.
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

// nextDataLine returns the next line that is not a '%' comment, trimmed,
// skipping empty lines only with skipEmpty (the header): in the node section
// one is a node without neighbours, as METIS writes it unweighted.
func nextDataLine(sc *bufio.Scanner, skipEmpty bool) (string, error) {
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
