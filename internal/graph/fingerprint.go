package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a stable content hash of g: a SHA-256 over the CSR
// arrays (XAdj, Adj, AdjW) and node weights (NW), in a fixed little-endian
// encoding. Two graphs have equal fingerprints iff their serialized CSR
// representations are byte-identical, which makes the fingerprint a safe
// cache key for partitioning results: isomorphic graphs with different node
// orderings hash differently (the partition vector is ordering-dependent
// anyway), and any change to structure or weights changes the hash.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	// Values are encoded into one buffer that is hashed whenever it is full:
	// the same byte stream as one Write per value, without the per-call cost.
	buf := make([]byte, 0, 64<<10)
	room := func(n int) {
		if len(buf)+n > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	writeU64 := func(x uint64) {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	// Domain-separate the sections so (XAdj, Adj) boundaries are unambiguous
	// even though slice lengths are implied by n and 2m.
	writeU64(uint64(len(g.NW)))
	writeU64(uint64(len(g.Adj)))
	for _, x := range g.XAdj {
		writeU64(uint64(x))
	}
	for _, v := range g.Adj {
		room(4)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	// A graph without stored weights hashes a 1 per arc, so it fingerprints
	// like the same graph with explicit unit weights.
	if g.AdjW == nil {
		for range g.Adj {
			writeU64(1)
		}
	}
	for _, w := range g.AdjW {
		writeU64(uint64(w))
	}
	for _, w := range g.NW {
		writeU64(uint64(w))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
