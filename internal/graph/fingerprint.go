package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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
	// Each section is encoded into one buffer a chunk at a time and hashed
	// chunk by chunk: the same byte stream as one Write per value.
	buf := make([]byte, 64<<10)
	// Domain-separate the sections so (XAdj, Adj) boundaries are unambiguous
	// even though slice lengths are implied by n and 2m.
	hashI64s(h, buf, []int64{int64(len(g.NW)), int64(len(g.Adj))})
	hashI64s(h, buf, g.XAdj)
	for s := g.Adj; len(s) > 0; {
		k := min(len(s), len(buf)/4)
		for i, v := range s[:k] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		h.Write(buf[:4*k])
		s = s[k:]
	}
	// A graph without stored weights hashes a 1 per arc, so it fingerprints
	// like the same graph with explicit unit weights.
	if g.AdjW == nil {
		for left := len(g.Adj); left > 0; {
			k := min(left, len(buf)/8)
			hashI64s(h, buf, UnitWeights(k))
			left -= k
		}
	}
	hashI64s(h, buf, g.AdjW)
	hashI64s(h, buf, g.NW)
	return hex.EncodeToString(h.Sum(nil))
}

// hashI64s writes s to h as little-endian words, encoding them through buf
// a chunk at a time.
func hashI64s(h hash.Hash, buf []byte, s []int64) {
	for len(s) > 0 {
		k := min(len(s), len(buf)/8)
		for i, x := range s[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
		}
		h.Write(buf[:8*k])
		s = s[k:]
	}
}
