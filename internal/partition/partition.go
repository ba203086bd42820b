// Package partition defines the partition representation and the quality
// metrics used throughout the reproduction: edge cut, balance, boundary
// size, communication volume and the quotient graph (paper §II-A).
package partition

import (
	"math"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/intmath"
)

// Partition assigns every node a block ID in [0, k). It is stored as a
// plain slice indexed by node ID.
//
// It is the replicated form of an assignment: one block per global node,
// the same on every rank, as the evolutionary initial partitioner and
// kaffpa work on it. The distributed kernels work on one int64 word per
// local and ghost node instead; Words and FromWords convert between the
// two, and dgraph.DGraph's Localize and GatherPartition between a
// replicated assignment and a rank's share of it.
type Partition []int32

// Words returns p with one int64 word per node, or nil for nil.
func (p Partition) Words() []int64 {
	if p == nil {
		return nil
	}
	w := make([]int64, len(p))
	for v, b := range p {
		w[v] = int64(b)
	}
	return w
}

// FromWords concatenates shares of int64 block words, in order, into one
// assignment: the ranks' shares in rank order make the whole assignment.
func FromWords(shares ...[]int64) Partition {
	n := 0
	for _, s := range shares {
		n += len(s)
	}
	p := make(Partition, 0, n)
	for _, s := range shares {
		for _, b := range s {
			p = append(p, int32(b))
		}
	}
	return p
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different blocks.
func EdgeCut(g *graph.Graph, p Partition) int64 {
	var cut int64
	n := g.NumNodes()
	for v := int32(0); v < n; v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if p[v] != p[u] {
				cut += ws[i]
			}
		}
	}
	return cut / 2 // every cut edge counted from both endpoints
}

// BlockWeights returns the total node weight per block for a partition
// into k blocks.
func BlockWeights(g *graph.Graph, p Partition, k int32) []int64 {
	w := make([]int64, k)
	for v := int32(0); v < g.NumNodes(); v++ {
		w[p[v]] += g.NW[v]
	}
	return w
}

// Lmax returns the balance bound (1+eps)*ceil(totalWeight/k) from §II-A,
// rounded down to an integer: block weights are integral, so
// c(V_i) <= (1+eps)*ceil is equivalent to c(V_i) <= floor((1+eps)*ceil).
//
// The product is evaluated exactly. Every layer (core, matchbase, kaffpa,
// sclp tests, the server via core.Stats) must obtain the bound from this
// one function so the constraint is identical across coarsening,
// refinement, rebalancing and the final feasibility check.
func Lmax(totalWeight int64, k int32, eps float64) int64 {
	if totalWeight < 0 || k < 1 {
		return 0
	}
	return ScaledBound(intmath.CeilDiv(totalWeight, int64(k)), eps)
}

// ScaledBound returns floor((1+eps)*w) for w >= 0, computed exactly: eps is
// interpreted as the decimal number the caller wrote (its shortest
// round-trip representation, so eps=0.29 means exactly 29/100), and the
// scaling runs in 128-bit integer arithmetic. The previous float64 formula
// truncated (eps=0.29 with w=100 gave 128 instead of 129) and lost
// precision entirely for weights above 2^53.
func ScaledBound(w int64, eps float64) int64 {
	if w <= 0 || eps <= 0 || math.IsNaN(eps) {
		return w
	}
	if math.IsInf(eps, 1) {
		return math.MaxInt64
	}
	if num, den, ok := decimalParts(eps); ok {
		return intmath.SatAdd(w, intmath.MulDivFloor(w, num, den))
	}
	return scaledBoundBig(w, eps)
}

// decimalParts decomposes a positive finite eps into num/den == the value
// of eps's shortest round-trip decimal representation. ok is false when the
// decimal exponent is too extreme for 64-bit integers (the caller falls
// back to big.Rat).
func decimalParts(eps float64) (num, den int64, ok bool) {
	s := strconv.FormatFloat(eps, 'g', -1, 64)
	mant, exp10 := s, 0
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		e, err := strconv.Atoi(s[i+1:])
		if err != nil {
			return 0, 0, false
		}
		mant, exp10 = s[:i], e
	}
	if i := strings.IndexByte(mant, '.'); i >= 0 {
		exp10 -= len(mant) - i - 1
		mant = mant[:i] + mant[i+1:]
	}
	n, err := strconv.ParseInt(mant, 10, 64)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	num, den = n, 1
	for ; exp10 > 0; exp10-- {
		if num > math.MaxInt64/10 {
			return 0, 0, false
		}
		num *= 10
	}
	for ; exp10 < 0; exp10++ {
		if den > math.MaxInt64/10 {
			return 0, 0, false
		}
		den *= 10
	}
	return num, den, true
}

// scaledBoundBig is the arbitrary-precision fallback for eps values whose
// decimal form does not fit 64-bit integers.
func scaledBoundBig(w int64, eps float64) int64 {
	r := new(big.Rat)
	if _, ok := r.SetString(strconv.FormatFloat(eps, 'g', -1, 64)); !ok {
		r.SetFloat64(eps)
	}
	r.Add(r, big.NewRat(1, 1))
	r.Mul(r, new(big.Rat).SetInt64(w))
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if !q.IsInt64() {
		return math.MaxInt64
	}
	return q.Int64()
}

// WorstOverload returns by how much the heaviest block exceeds the balance
// bound Lmax (0 for feasible partitions).
func WorstOverload(g *graph.Graph, p Partition, k int32, eps float64) int64 {
	lmax := Lmax(g.TotalNodeWeight(), k, eps)
	var worst int64
	for _, w := range BlockWeights(g, p, k) {
		if over := w - lmax; over > worst {
			worst = over
		}
	}
	return worst
}

// Imbalance returns max_i c(V_i)/(c(V)/k) - 1, the conventional imbalance
// measure. A perfectly balanced partition has imbalance 0.
func Imbalance(g *graph.Graph, p Partition, k int32) float64 {
	bw := BlockWeights(g, p, k)
	total := g.TotalNodeWeight()
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(k)
	var mx int64
	for _, w := range bw {
		if w > mx {
			mx = w
		}
	}
	return float64(mx)/avg - 1
}

// IsFeasible reports whether every block weight respects Lmax for the given
// eps, and whether all block IDs are within [0, k).
func IsFeasible(g *graph.Graph, p Partition, k int32, eps float64) bool {
	for _, b := range p {
		if b < 0 || b >= k {
			return false
		}
	}
	lmax := Lmax(g.TotalNodeWeight(), k, eps)
	for _, w := range BlockWeights(g, p, k) {
		if w > lmax {
			return false
		}
	}
	return true
}

// BoundaryNodes returns the nodes with at least one neighbour in a
// different block (§II-A).
func BoundaryNodes(g *graph.Graph, p Partition) []graph.NodeID {
	var out []graph.NodeID
	for v := int32(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if p[v] != p[u] {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// CommunicationVolume returns the total communication volume of the
// partition: for every node, the number of distinct foreign blocks among
// its neighbours, summed over all nodes. This is the "more realistic"
// objective mentioned in §I and §VI.
func CommunicationVolume(g *graph.Graph, p Partition, k int32) int64 {
	seen := make([]int32, k)
	for i := range seen {
		seen[i] = -1
	}
	var vol int64
	for v := int32(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if p[u] != p[v] && seen[p[u]] != v {
				seen[p[u]] = v
				vol++
			}
		}
	}
	return vol
}

// MaxQuotientDegree returns the largest number of distinct neighbouring
// blocks over all blocks — the "maximum quotient graph degree" objective
// mentioned in §VI. For k PEs it bounds the number of communication
// partners of the busiest PE.
func MaxQuotientDegree(g *graph.Graph, p Partition, k int32) int32 {
	adj := make(map[int64]bool)
	for v := int32(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if p[u] != p[v] {
				adj[int64(p[v])*int64(k)+int64(p[u])] = true
			}
		}
	}
	deg := make([]int32, k)
	for key := range adj {
		deg[key/int64(k)]++
	}
	var mx int32
	for _, d := range deg {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// MaxCommVolume returns the communication volume of the busiest block: for
// each block, the number of (node, foreign block) pairs its nodes must
// send, maximized over blocks ("maximum communication volume", §VI).
func MaxCommVolume(g *graph.Graph, p Partition, k int32) int64 {
	seen := make([]int32, k)
	for i := range seen {
		seen[i] = -1
	}
	vol := make([]int64, k)
	for v := int32(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if p[u] != p[v] && seen[p[u]] != v {
				seen[p[u]] = v
				vol[p[v]]++
			}
		}
	}
	var mx int64
	for _, x := range vol {
		if x > mx {
			mx = x
		}
	}
	return mx
}
