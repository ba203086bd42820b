package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary graph format: a fixed little-endian layout that needs no text
// parsing (KaHIP ships a comparable "parhip binary" format for the same
// reason). It loads faster than METIS text, though not by an order of
// magnitude: the web graph of n = 65,536 and 415,198 edges reads in about
// 25 ms from its 11.0 MB binary file and in about 39 ms from its 6.6 MB of
// METIS text (go test -bench 'Metis|Binary' ./internal/graph/, 2-vCPU
// box; validation included). Per byte, binary reads at about 2.6 times
// the METIS rate.
//
// Layout (all little-endian):
//
//	magic   uint64  'PARHIPGB'
//	version uint64  (1)
//	n       uint64
//	m2      uint64  (number of adjacency entries = 2m)
//	xadj    n+1 × uint64
//	adj     m2  × uint32
//	adjw    m2  × int64
//	nw      n   × int64
const (
	binaryMagic   = 0x5041524849504742 // "PARHIPGB"
	binaryVersion = 1
)

// IsBinaryPrefix reports whether prefix (at least 8 bytes of a stream)
// starts with the binary graph format magic, letting callers sniff the
// format before choosing ReadBinary or ReadMetis.
func IsBinaryPrefix(prefix []byte) bool {
	return len(prefix) >= 8 && binary.LittleEndian.Uint64(prefix) == binaryMagic
}

// WriteBinary writes g in the binary graph format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := int(g.NumNodes())
	header := []uint64{binaryMagic, binaryVersion, uint64(n), uint64(len(g.Adj))}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.XAdj); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Adj); err != nil {
		return err
	}
	if err := writeEdgeWeights(bw, g); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.NW); err != nil {
		return err
	}
	return bw.Flush()
}

// writeEdgeWeights writes the adjw section. A graph without stored weights
// writes its ones, so the file does not tell the two apart.
func writeEdgeWeights(w io.Writer, g *Graph) error {
	if g.AdjW != nil {
		return binary.Write(w, binary.LittleEndian, g.AdjW)
	}
	const chunk = 1 << 12
	for left := len(g.Adj); left > 0; left -= chunk {
		if err := binary.Write(w, binary.LittleEndian, UnitWeights(min(left, chunk))); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary reads a graph in the binary graph format and validates its
// structure. The arrays grow with the payload that arrives, not with the
// header's counts. An adjw section of ones is dropped: the graph keeps no
// weights, like one built from unit-weight edges.
func ReadBinary(r io.Reader) (*Graph, error) {
	g, err := decodeBinary(r)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return reserveUnitRows(g), nil
}

// decodeBinary is ReadBinary without the validation.
func decodeBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var header [4]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
	}
	if header[0] != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %#x", header[0])
	}
	if header[1] != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", header[1])
	}
	n, m2 := header[2], header[3]
	if n > math.MaxInt32 || m2 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible binary sizes n=%d m2=%d", n, m2)
	}
	g := &Graph{}
	var err error
	if g.XAdj, err = readWords(br, n+1, 8, decodeI64); err != nil {
		return nil, fmt.Errorf("graph: binary xadj: %w", err)
	}
	if g.Adj, err = readWords(br, m2, 4, decodeI32); err != nil {
		return nil, fmt.Errorf("graph: binary adj: %w", err)
	}
	if g.AdjW, err = readWords(br, m2, 8, decodeI64); err != nil {
		return nil, fmt.Errorf("graph: binary adjw: %w", err)
	}
	if allOnes(g.AdjW) {
		g.AdjW = nil
	}
	if g.NW, err = readWords(br, n, 8, decodeI64); err != nil {
		return nil, fmt.Errorf("graph: binary nw: %w", err)
	}
	return g, nil
}

// allOnes reports whether every element of s is 1.
func allOnes(s []int64) bool {
	for _, w := range s {
		if w != 1 {
			return false
		}
	}
	return true
}

// decodeI32 and decodeI64 decode the little-endian words of b into dst,
// which holds len(b)/4 or len(b)/8 of them.
func decodeI32(dst []NodeID, b []byte) {
	for i := range dst {
		dst[i] = NodeID(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func decodeI64(dst []int64, b []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// readWords reads count little-endian words of width bytes a chunk at a
// time and decodes each chunk with one call of decode. The slice starts at
// one chunk and doubles as the words arrive (capped at count), so it never
// holds more than twice what was read. A doubling below count goes through
// slices.Grow, which clears only the tail past the copied words; the last
// growth allocates exactly count words, because append's size classes
// would leave up to a quarter of slack for the graph's lifetime.
func readWords[T NodeID | int64](br *bufio.Reader, count uint64, width int, decode func([]T, []byte)) ([]T, error) {
	const chunk = 1 << 13 // words
	out := make([]T, 0, min(count, chunk))
	buf := make([]byte, cap(out)*width)
	for len(out) < int(count) {
		k := min(int(count)-len(out), chunk)
		b := buf[:k*width]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		if len(out)+k > cap(out) {
			if n := 2 * cap(out); n < int(count) {
				out = slices.Grow(out, n-len(out))
			} else {
				out = append(make([]T, 0, count), out...)
			}
		}
		out = out[:len(out)+k]
		decode(out[len(out)-k:], b)
	}
	return out, nil
}
