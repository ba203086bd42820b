package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// WriteMetis writes g in METIS graph format: a header line "n m fmt" where
// fmt is 11 (node and edge weights), followed by one line per node listing
// "nodeweight (neighbour edgeweight)*" with 1-based neighbour IDs.
func WriteMetis(w io.Writer, g *Graph) error {
	const flushAt = 64 << 10
	buf := make([]byte, 0, 2*flushAt)
	buf = strconv.AppendInt(buf, int64(g.NumNodes()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, g.NumEdges(), 10)
	buf = append(buf, " 11\n"...)
	for v := int32(0); v < g.NumNodes(); v++ {
		buf = strconv.AppendInt(buf, g.NW[v], 10)
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(u)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, ws[i], 10)
		}
		buf = append(buf, '\n')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadMetis parses a graph in METIS format. Supported fmt codes: 0 or
// absent (no weights), 1 (edge weights), 10 (node weights), 11 (both).
// Comment lines starting with '%' are skipped; an empty node line is a node
// without neighbours (or, with node weights, lacks its weight). Memory grows
// with the lines read, never with the header's claims, and the weights one
// line gives its higher-numbered neighbours must sum to at most MaxInt64, so
// no merge of duplicate edges overflows.
//
// Tokens are the fields strings.Fields would split a line into and numbers
// are what strconv.ParseInt accepts, but plain digit tokens are split off
// and parsed straight from the scanner's bytes in one pass; only a token
// with a sign, more than 18 digits or another character, and the rest of a
// line from a non-ASCII byte on, take the general path.
func ReadMetis(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<26)
	hdr, err := nextDataLine(sc, true)
	if err != nil {
		return nil, fmt.Errorf("graph: missing METIS header: %w", err)
	}
	line := strings.TrimSpace(string(hdr))
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
	// Line v is row v, so only each line's arcs to higher-numbered
	// neighbours are kept: their targets in up, and where line v's end in
	// upEnd[v+1]. Weights other than 1 are listed apart, up[wAt[j]]'s as
	// wVal[j]: most weights are often 1.
	n := int32(n64)
	var nw, upEnd, wAt, wVal, vals []int64
	var up []NodeID
	upEnd = append(upEnd, 0)
	sorted := true // each line's arcs to higher neighbours strictly ascend
	for v := int32(0); v < n; v++ {
		line, err := nextDataLine(sc, false)
		if err != nil {
			return nil, fmt.Errorf("graph: missing line for node %d: %w", v+1, err)
		}
		// The line's tokens are vals, and one more that is not a number
		// unless all parsed; bad reports the k-th.
		var all bool
		vals, all = lineInts(line, vals[:0])
		bad := func(k int, what string) error {
			return fmt.Errorf("graph: node %d: bad %s %q", v+1, what, bytes.Fields(line)[k])
		}
		ntok := len(vals)
		if !all {
			ntok++
		}
		k, nwv, upSum := 0, int64(1), int64(0)
		if hasNW {
			if ntok == 0 {
				return nil, fmt.Errorf("graph: node %d: missing node weight", v+1)
			}
			if len(vals) == 0 || vals[0] <= 0 {
				return nil, bad(0, "node weight")
			}
			nwv, k = vals[0], 1
		}
		nw = appendGrow(nw, nwv)
		for k < ntok {
			if k == len(vals) || vals[k] < 1 || vals[k] > n64 {
				return nil, bad(k, "neighbour")
			}
			u, w := vals[k], int64(1)
			k++
			if hasEW {
				if k == ntok {
					return nil, fmt.Errorf("graph: node %d: missing edge weight", v+1)
				}
				if k == len(vals) || vals[k] <= 0 {
					return nil, bad(k, "edge weight")
				}
				w = vals[k]
				k++
			}
			// Each undirected edge appears twice in the file; keep it once.
			if int32(u-1) <= v {
				continue
			}
			if w > math.MaxInt64-upSum {
				return nil, fmt.Errorf("graph: node %d: edge weights overflow int64", v+1)
			}
			upSum += w
			if len(up) > int(upEnd[v]) && up[len(up)-1] >= int32(u-1) {
				sorted = false
			}
			if w != 1 {
				wAt, wVal = appendGrow(wAt, int64(len(up))), appendGrow(wVal, w)
			}
			up = appendGrow(up, int32(u-1))
		}
		upEnd = appendGrow(upEnd, int64(len(up)))
	}
	g := symmetrize(nw, up, upEnd, wAt, wVal, sorted)
	if g.NumEdges() != m64 {
		return nil, fmt.Errorf("graph: header claims %d edges, parsed %d", m64, g.NumEdges())
	}
	return reserveUnitRows(g), nil
}

// symmetrize builds the canonical CSR graph whose row v holds the arcs
// up[upEnd[v]:upEnd[v+1]] and their reverses, merging duplicates like
// Builder.Build. Arc up[wAt[j]] weighs wVal[j], the others 1. Each row is
// laid out as its reverse arcs, ascending because the rows are visited in
// order, then its own arcs in the order given. So when sorted says that
// each row's own arcs strictly ascend, every row does, and none needs
// canonicalizing.
func symmetrize(nw []int64, up []NodeID, upEnd, wAt, wVal []int64, sorted bool) *Graph {
	n := len(nw)
	xadj := make([]int64, n+1)
	for v := 0; v < n; v++ {
		xadj[v+1] = upEnd[v+1] - upEnd[v]
	}
	for _, u := range up {
		xadj[u+1]++
	}
	// xadj[v+1] is row v's start here, and its end once it is filled: it
	// is the row's cursor.
	for v, start := 0, int64(0); v < n; v++ {
		xadj[v+1], start = start, start+xadj[v+1]
	}
	adj := make([]NodeID, 2*len(up))
	var adjw []int64
	if len(wAt) > 0 {
		adjw = fillOnes(make([]int64, len(adj)))
	}
	j := 0 // the next entry of wAt
	for v := 0; v < n; v++ {
		for i := upEnd[v]; i < upEnd[v+1]; i++ {
			u := up[i]
			pv, pu := xadj[v+1], xadj[u+1]
			adj[pv], adj[pu] = u, NodeID(v)
			xadj[v+1], xadj[u+1] = pv+1, pu+1
			if j < len(wAt) && wAt[j] == i {
				adjw[pv], adjw[pu] = wVal[j], wVal[j]
				j++
			}
		}
	}
	if !sorted {
		var out int64
		out, adjw = CanonicalizeCSR(xadj, adj, adjw, &RowScratch[NodeID]{})
		adj = adj[:out:out]
		if adjw != nil {
			adjw = adjw[:out:out]
		}
	}
	return &Graph{XAdj: xadj, Adj: adj, AdjW: adjw, NW: nw}
}

// appendGrow appends x to s, at least doubling the capacity when it is full
// rather than growing it by append's quarter for large slices.
func appendGrow[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(cap(s), 1024))
	}
	return append(s, x)
}

// spaceByte marks the bytes that strings.Fields splits at in ASCII text.
var spaceByte = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextDataLine returns the next line that is not a '%' comment, skipping
// lines without tokens only with skipEmpty (the header): in the node section
// one is a node without neighbours, as METIS writes it unweighted. The line
// aliases the scanner's buffer.
func nextDataLine(sc *bufio.Scanner, skipEmpty bool) ([]byte, error) {
	for sc.Scan() {
		line := sc.Bytes()
		i := 0
		for i < len(line) && spaceByte[line[i]] {
			i++
		}
		line = line[i:]
		if len(line) > 0 && line[0] >= utf8.RuneSelf {
			line = bytes.TrimSpace(line)
		}
		if len(line) == 0 && skipEmpty || len(line) > 0 && line[0] == '%' {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// lineInts appends the values of line's tokens to vals, stopping before the
// first token that is not a number, and reports whether it reached the
// line's end. Tokens are what strings.Fields splits the line into, and a
// number is what strconv.ParseInt(tok, 10, 64) accepts. Tokens of 1 to 18
// plain digits followed by an ASCII space are split off and parsed in one
// pass over the bytes; the rest of the line, from the first other token on,
// goes through bytes.Fields and ParseInt.
func lineInts(line []byte, vals []int64) ([]int64, bool) {
	i := 0
	for {
		for i < len(line) && spaceByte[line[i]] {
			i++
		}
		if i == len(line) {
			return vals, true
		}
		j, x := i, int64(0)
		for ; j < len(line); j++ {
			d := line[j] - '0'
			if d > 9 {
				break
			}
			x = x*10 + int64(d)
		}
		if uint(j-i-1) >= 18 || j < len(line) && !spaceByte[line[j]] {
			break
		}
		vals = append(vals, x)
		if j == len(line) {
			return vals, true
		}
		i = j + 1
	}
	for _, tok := range bytes.Fields(line[i:]) {
		x, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil {
			return vals, false
		}
		vals = append(vals, x)
	}
	return vals, true
}
