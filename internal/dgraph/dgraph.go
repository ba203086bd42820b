// Package dgraph implements the distributed graph data structure from
// §IV-A of the paper.
//
// Every rank owns a contiguous range of global node IDs. A rank stores the
// CSR adjacency of its local nodes; endpoints outside the local range are
// ghost (halo) nodes, appended after the local nodes in local ID space.
// Global IDs of local nodes translate to local IDs by subtracting the range
// start; ghost nodes are translated through a hash table, exactly as the
// paper describes (ghostIndex: 4 bytes per slot, the keys read back from
// the ghosts' global IDs). For each ghost node the owning rank is stored
// for O(1) lookup.
package dgraph

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/mpi"
)

// DGraph is one rank's share of a distributed graph plus its ghost halo.
type DGraph struct {
	Comm *mpi.Comm

	// GlobalN and GlobalM are the global node and undirected edge counts.
	GlobalN int64
	GlobalM int64

	// VtxDist has size+1 entries; rank p owns global IDs
	// [VtxDist[p], VtxDist[p+1]).
	VtxDist []int64

	// CSR over local nodes. Adj holds local IDs: values below NLocal()
	// are local nodes, values >= NLocal() index ghosts.
	XAdj []int64
	//lint:rawslice-ok CSR adjacency in local-index space, not a partition
	Adj []int32
	// AdjW may alias the input graph's weight array (FromGraph) and is
	// never written. It is nil when every edge weight is 1, as in
	// graph.Graph; EdgeWeights handles both.
	AdjW []int64
	// unitW is nil, or for a graph without stored weights one
	// graph.UnitWeights row as long as the longest local row.
	unitW []int64

	// NW holds node weights for local nodes followed by ghosts.
	NW []int64

	nLocal      int32
	ghostGlobal []int64 // global ID per ghost, in local-ID order
	ghostOwner  []int32 // owning rank per ghost
	g2l         ghostIndex

	// Adjacent-rank lists in CSR form: the distinct ranks owning ghost
	// neighbours of local node v are adjRankDat[adjRankOff[v]:adjRankOff[v+1]]
	// (empty for non-interface nodes). Used to push label updates only to
	// PEs that can see them (§IV-A).
	adjRankOff []int32
	adjRankDat []int32

	// plan is the precomputed halo-exchange plan (see plan.go), built once
	// in finalize().
	plan *ExchangePlan

	// Reverse CSR of the halo (see GhostNeighbors): ghost nLocal+i's local
	// neighbours are ghostAdj[ghostAdjOff[i]:ghostAdjOff[i+1]].
	ghostAdjOff []int64
	ghostAdj    []int32
}

// UniformVtxDist splits n nodes into size contiguous chunks of nearly equal
// size (the first n mod size chunks are one larger).
func UniformVtxDist(n int64, size int) []int64 {
	vd := make([]int64, size+1)
	base := n / int64(size)
	rem := n % int64(size)
	for p := 0; p < size; p++ {
		vd[p+1] = vd[p] + base
		if int64(p) < rem {
			vd[p+1]++
		}
	}
	return vd
}

// FromGraph builds this rank's share of g using a uniform contiguous node
// distribution. Every rank must pass an identical g (SPMD). The rank's rows
// are one contiguous range of g's arrays, so they go to Build without a
// copy of the adjacency, and AdjW aliases g.AdjW (nil for a graph without
// stored weights). Collective.
//
//parhip:collective
func FromGraph(c *mpi.Comm, g *graph.Graph) *DGraph {
	vd := UniformVtxDist(int64(g.NumNodes()), c.Size())
	lo, hi := vd[c.Rank()], vd[c.Rank()+1]
	a, b := g.XAdj[lo], g.XAdj[hi]
	xadj := make([]int64, hi-lo+1)
	for i := range xadj {
		xadj[i] = g.XAdj[lo+int64(i)] - a
	}
	var adjw []int64
	if g.AdjW != nil {
		adjw = g.AdjW[a:b:b]
	}
	return Build(c, vd, g.NW[lo:hi], xadj, g.Adj[a:b], adjw)
}

// internGhost returns the local ID for global node gu, creating a ghost
// entry if needed. Only valid during construction.
func (d *DGraph) internGhost(gu int64) int32 {
	if gi, ok := d.g2l.get(d.ghostGlobal, gu); ok {
		return d.nLocal + gi
	}
	gi := int32(len(d.ghostGlobal))
	d.ghostGlobal = append(d.ghostGlobal, gu)
	d.ghostOwner = append(d.ghostOwner, int32(d.Owner(gu)))
	d.g2l.add(d.ghostGlobal)
	return d.nLocal + gi
}

// ghostIndex translates a ghost's global ID to its ghost index, its
// position in ghostGlobal: an open-addressing table with linear probing
// whose slots hold index+1 (0 is empty) and whose keys are read back from
// ghostGlobal. A slot costs 4 bytes, where a table that stores its keys
// and values costs 17; the load stays at most 1/2. A lookup is one probe
// sequence plus one read of ghostGlobal per occupied slot it passes.
type ghostIndex struct {
	slots []int32
	shift uint // 64 - log2(len(slots))
}

// minGhostSlots is the table's size before its first growth.
const minGhostSlots = 16

// home is g's first slot: Fibonacci hashing, whose top bits spread runs of
// consecutive IDs evenly.
func (x *ghostIndex) home(g int64) uint64 {
	return (uint64(g) * 0x9e3779b97f4a7c15) >> x.shift
}

// find returns the slot holding g, or the empty slot that ends g's probe
// sequence. keys is ghostGlobal.
func (x *ghostIndex) find(keys []int64, g int64) uint64 {
	mask := uint64(len(x.slots) - 1)
	i := x.home(g)
	for x.slots[i] != 0 && keys[x.slots[i]-1] != g {
		i = (i + 1) & mask
	}
	return i
}

// get returns g's ghost index and whether g is a ghost.
func (x *ghostIndex) get(keys []int64, g int64) (int32, bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	s := x.slots[x.find(keys, g)]
	return s - 1, s != 0
}

// add indexes keys' last entry, which get reported absent, doubling the
// table (and rehashing keys) when it would pass half full.
func (x *ghostIndex) add(keys []int64) {
	if 2*len(keys) > len(x.slots) {
		n := max(minGhostSlots, 2*len(x.slots))
		x.slots = make([]int32, n)
		x.shift = uint(64 - bits.TrailingZeros(uint(n)))
		for i, g := range keys {
			x.slots[x.find(keys, g)] = int32(i + 1)
		}
		return
	}
	x.slots[x.find(keys, keys[len(keys)-1])] = int32(len(keys))
}

// finalize computes the per-node adjacent-rank lists and derives the
// level's halo-exchange plan. Collective (plan construction verifies the
// rank topology).
func (d *DGraph) finalize() {
	d.adjRankOff = make([]int32, d.nLocal+1)
	var scratch []int32
	for v := int32(0); v < d.nLocal; v++ {
		scratch = scratch[:0]
		for _, u := range d.Neighbors(v) {
			if u >= d.nLocal {
				scratch = append(scratch, d.ghostOwner[u-d.nLocal])
			}
		}
		d.adjRankOff[v+1] = d.adjRankOff[v]
		if len(scratch) == 0 {
			continue
		}
		slices.Sort(scratch)
		prev := int32(-1)
		for _, r := range scratch {
			if r != prev {
				d.adjRankDat = append(d.adjRankDat, r)
				d.adjRankOff[v+1]++
				prev = r
			}
		}
	}
	d.buildPlan()
}

// NLocal returns the number of nodes this rank owns.
func (d *DGraph) NLocal() int32 { return d.nLocal }

// NGhost returns the number of ghost nodes on this rank.
func (d *DGraph) NGhost() int32 { return int32(len(d.ghostGlobal)) }

// NTotal returns local + ghost node count (the length of per-node arrays).
func (d *DGraph) NTotal() int32 { return d.nLocal + int32(len(d.ghostGlobal)) }

// FirstGlobal returns the first global ID owned by this rank.
func (d *DGraph) FirstGlobal() int64 { return d.VtxDist[d.Comm.Rank()] }

// IsGhost reports whether local ID v refers to a ghost node.
func (d *DGraph) IsGhost(v int32) bool { return v >= d.nLocal }

// IsInterface reports whether local node v has a neighbour on another rank.
func (d *DGraph) IsInterface(v int32) bool {
	return v < d.nLocal && d.adjRankOff[v+1] > d.adjRankOff[v]
}

// AdjacentRanks returns the ranks owning ghost neighbours of local node v
// (empty for interior nodes). The slice must not be modified.
//
//lint:rawslice-ok list of PE ranks, not a partition
func (d *DGraph) AdjacentRanks(v int32) []int32 {
	return d.adjRankDat[d.adjRankOff[v]:d.adjRankOff[v+1]]
}

// ToGlobal converts a local ID (local node or ghost) to its global ID.
func (d *DGraph) ToGlobal(v int32) int64 {
	if v < d.nLocal {
		return d.FirstGlobal() + int64(v)
	}
	return d.ghostGlobal[v-d.nLocal]
}

// ToLocal converts a global ID to a local ID. ok is false when the node is
// neither local nor a known ghost.
func (d *DGraph) ToLocal(g int64) (int32, bool) {
	lo := d.FirstGlobal()
	if g >= lo && g < d.VtxDist[d.Comm.Rank()+1] {
		return int32(g - lo), true
	}
	if gi, ok := d.g2l.get(d.ghostGlobal, g); ok {
		return d.nLocal + gi, true
	}
	return 0, false
}

// Owner returns the rank owning global node g.
func (d *DGraph) Owner(g int64) int {
	// Binary search: largest p with VtxDist[p] <= g.
	lo, hi := 0, len(d.VtxDist)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if d.VtxDist[mid] <= g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// GhostOwner returns the rank owning ghost with local ID v.
func (d *DGraph) GhostOwner(v int32) int32 { return d.ghostOwner[v-d.nLocal] }

// GhostNeighbors returns the local nodes adjacent to ghost g, ascending: who
// has to look again when g's value changes in an exchange. The reverse CSR
// behind it (one int32 per interface arc, counting-sorted by walking the
// local nodes in ID order) is built on the first call, at most once per
// DGraph. The slice aliases internal storage.
//
//lint:rawslice-ok local node IDs in CSR order, not a partition
func (d *DGraph) GhostNeighbors(g int32) []int32 {
	if d.ghostAdjOff == nil {
		ng := d.NGhost()
		d.ghostAdjOff = make([]int64, ng+1)
		for _, u := range d.Adj {
			if u >= d.nLocal {
				d.ghostAdjOff[u-d.nLocal+1]++
			}
		}
		for i := int32(0); i < ng; i++ {
			d.ghostAdjOff[i+1] += d.ghostAdjOff[i]
		}
		d.ghostAdj = make([]int32, d.ghostAdjOff[ng])
		next := slices.Clone(d.ghostAdjOff[:ng])
		for v := int32(0); v < d.nLocal; v++ {
			for _, u := range d.Neighbors(v) {
				if u >= d.nLocal {
					d.ghostAdj[next[u-d.nLocal]] = v
					next[u-d.nLocal]++
				}
			}
		}
	}
	return d.ghostAdj[d.ghostAdjOff[g-d.nLocal]:d.ghostAdjOff[g-d.nLocal+1]]
}

// Degree returns the degree of local node v.
func (d *DGraph) Degree(v int32) int32 { return int32(d.XAdj[v+1] - d.XAdj[v]) }

// Neighbors returns the local-ID neighbour list of local node v; entries
// >= NLocal() are ghosts. The slice aliases internal storage.
//
//lint:rawslice-ok local node IDs in CSR order, not a partition
func (d *DGraph) Neighbors(v int32) []int32 { return d.Adj[d.XAdj[v]:d.XAdj[v+1]] }

// EdgeWeights returns edge weights parallel to Neighbors(v). The slice
// aliases internal storage, or the shared ones of graph.UnitWeights, and
// must not be modified.
func (d *DGraph) EdgeWeights(v int32) []int64 {
	if d.AdjW == nil {
		n := d.XAdj[v+1] - d.XAdj[v]
		return d.unitW[:n:n]
	}
	return d.AdjW[d.XAdj[v]:d.XAdj[v+1]]
}

// LocalNodeWeight returns the total weight of this rank's local nodes.
func (d *DGraph) LocalNodeWeight() int64 {
	var s int64
	for v := int32(0); v < d.nLocal; v++ {
		s += d.NW[v]
	}
	return s
}

// GlobalNodeWeight returns the total node weight across all ranks
// (collective).
func (d *DGraph) GlobalNodeWeight() int64 {
	return d.Comm.AllreduceSum1(d.LocalNodeWeight())
}

// MaxNodeWeightGlobal returns the maximum node weight across all ranks
// (collective).
func (d *DGraph) MaxNodeWeightGlobal() int64 {
	var mw int64
	for v := int32(0); v < d.nLocal; v++ {
		if d.NW[v] > mw {
			mw = d.NW[v]
		}
	}
	return d.Comm.AllreduceMax1(mw)
}

// Validate checks local structural invariants and, collectively, that ghost
// metadata is consistent with the owners' data.
func (d *DGraph) Validate() error {
	if d.XAdj[0] != 0 || len(d.XAdj) != int(d.nLocal)+1 {
		return fmt.Errorf("dgraph: bad XAdj shape")
	}
	for v := int32(0); v < d.nLocal; v++ {
		if d.XAdj[v+1] < d.XAdj[v] {
			return fmt.Errorf("dgraph: XAdj not monotone at %d", v)
		}
	}
	if d.AdjW != nil && len(d.AdjW) != len(d.Adj) {
		return fmt.Errorf("dgraph: %d edge weights for %d arcs", len(d.AdjW), len(d.Adj))
	}
	nt := d.NTotal()
	for i, u := range d.Adj {
		if u < 0 || u >= nt {
			return fmt.Errorf("dgraph: adjacency entry %d out of range", i)
		}
		if d.AdjW != nil && d.AdjW[i] <= 0 {
			return fmt.Errorf("dgraph: non-positive edge weight at slot %d", i)
		}
	}
	for i, g := range d.ghostGlobal {
		if g >= d.FirstGlobal() && g < d.VtxDist[d.Comm.Rank()+1] {
			return fmt.Errorf("dgraph: ghost %d is actually local", i)
		}
		if int(d.ghostOwner[i]) != d.Owner(g) {
			return fmt.Errorf("dgraph: ghost %d owner mismatch", i)
		}
	}
	// Ghost node weights must match the owners' values.
	queries := append([]int64(nil), d.ghostGlobal...)
	answers := d.LookupI64(d.NW[:d.nLocal], queries)
	for i := range queries {
		if answers[i] != d.NW[int(d.nLocal)+i] {
			return fmt.Errorf("dgraph: ghost %d weight stale: have %d, owner has %d",
				i, d.NW[int(d.nLocal)+i], answers[i])
		}
	}
	return nil
}

// LookupI64 answers point queries against a distributed per-local-node
// array: queries are global node IDs, and the result holds, for each query,
// vals[q - ownerFirst] read on q's owner. Queries may target any rank (not
// just plan neighbors — uncoarsening projection asks arbitrary coarse
// owners), so the exchange is a dense all-to-all. The owner overwrites the
// queries it received with their answers and sends that buffer back.
// Collective: all ranks must call.
func (d *DGraph) LookupI64(vals []int64, queries []int64) []int64 {
	size := d.Comm.Size()
	// Group query positions by owner; each owner's queries are built from
	// them straight into the exchange's scratch.
	posByOwner := make([][]int32, size)
	for qi, q := range queries {
		o := d.Owner(q)
		posByOwner[o] = append(posByOwner[o], int32(qi))
	}
	// Answer what we own, in the received buffers.
	replies := make([][]int64, size)
	lo := d.FirstGlobal()
	d.Comm.AlltoallvFunc(func(dst int, buf []int64) []int64 {
		for _, pos := range posByOwner[dst] {
			buf = append(buf, queries[pos])
		}
		return buf
	}, func(r int, qs []int64) {
		for i, q := range qs {
			qs[i] = vals[q-lo]
		}
		replies[r] = qs
	})
	out := make([]int64, len(queries))
	d.Comm.AlltoallvFunc(func(dst int, _ []int64) []int64 { return replies[dst] }, func(r int, ans []int64) {
		if len(ans) != len(posByOwner[r]) {
			d.Comm.Abort()
			panic(fmt.Sprintf("dgraph: rank %d answered %d of %d queries",
				r, len(ans), len(posByOwner[r])))
		}
		for i, pos := range posByOwner[r] {
			out[pos] = ans[i]
		}
	})
	return out
}

// SyncGhosts overwrites the ghost tail of vals (indices NLocal()..NTotal())
// with the owners' current local values. vals must have NTotal() entries.
// The exchange follows the precomputed plan: values only (both sides know
// the wire order), adjacent ranks only, staging buffers reused. Collective.
//
//parhip:collective
func (d *DGraph) SyncGhosts(vals []int64) {
	sp := d.Comm.Tracer().Begin(d.Comm.Rank(), "dgraph.sync_ghosts")
	p := d.plan
	for i := range p.nbrs {
		buf := p.sendBuf[i][:0]
		for _, v := range p.sendVtx[p.sendOff[i]:p.sendOff[i+1]] {
			buf = append(buf, vals[v])
		}
		p.sendBuf[i] = buf
	}
	d.Comm.NeighborAlltoallv(p.nbrs, p.sendBuf, func(i int, data []int64) {
		ghosts := p.recvGhost[p.recvOff[i]:p.recvOff[i+1]]
		if len(data) != len(ghosts) {
			d.Comm.Abort()
			panic(fmt.Sprintf("dgraph: ghost sync from rank %d carried %d values for %d ghosts",
				p.nbrs[i], len(data), len(ghosts)))
		}
		for j, g := range ghosts {
			vals[g] = data[j]
		}
	})
	p.resetStaging()
	d.Comm.Tracer().End(sp)
}

// PushGhostsFunc propagates updated values of the given changed local
// interface nodes to the ranks holding them as ghosts, updating their vals
// arrays in place. Nodes in changed that are not interface nodes are
// skipped. This is the update-exchange from §IV-A, realized as one sparse
// neighborhood exchange per phase. When onUpdate is non-nil it is invoked
// for every ghost whose value actually changes, before the write, with the
// ghost's local ID and the old and new values; label propagation uses it
// to migrate locally tracked cluster weights.
//
// Wire protocol: for each changed vertex v and each adjacent rank, the
// plan's staging receives the pair (position of v in that neighbor's send
// list, vals[v]). A malformed incoming buffer — odd length or an
// out-of-range position — aborts the world and panics loudly instead of
// being silently truncated. Collective.
//
//parhip:collective
//lint:rawslice-ok changed is a list of local node IDs, not a partition
func (d *DGraph) PushGhostsFunc(vals []int64, changed []int32, onUpdate func(ghost int32, old, new int64)) {
	sp := d.Comm.Tracer().Begin(d.Comm.Rank(), "dgraph.push_ghosts")
	p := d.plan
	p.resetStaging()
	for _, v := range changed {
		base := d.adjRankOff[v]
		for j := base; j < d.adjRankOff[v+1]; j++ {
			packed := p.adjPlan[j]
			slot := packed >> 32
			pos := packed & 0xffffffff
			p.sendBuf[slot] = append(p.sendBuf[slot], pos, vals[v])
		}
	}
	d.Comm.NeighborAlltoallv(p.nbrs, p.sendBuf, func(i int, data []int64) {
		if len(data)%2 != 0 {
			d.Comm.Abort()
			panic(fmt.Sprintf("dgraph: ghost push from rank %d carried %d words (odd, not (pos, value) pairs)",
				p.nbrs[i], len(data)))
		}
		ghosts := p.recvGhost[p.recvOff[i]:p.recvOff[i+1]]
		for j := 0; j < len(data); j += 2 {
			pos := data[j]
			if pos < 0 || pos >= int64(len(ghosts)) {
				d.Comm.Abort()
				panic(fmt.Sprintf("dgraph: ghost push from rank %d names position %d of %d",
					p.nbrs[i], pos, len(ghosts)))
			}
			g := ghosts[pos]
			nv := data[j+1]
			if onUpdate != nil && vals[g] != nv {
				onUpdate(g, vals[g], nv)
			}
			vals[g] = nv
		}
	})
	p.resetStaging()
	d.Comm.Tracer().End1(sp, "changed", int64(len(changed)))
}

// Gather replicates the full distributed graph on every rank. The paper
// uses this on the coarsest graph before running the evolutionary
// partitioner ("the distributed coarse graph is then collected on each
// PE"). Collective.
//
//parhip:collective
func (d *DGraph) Gather() *graph.Graph {
	// Serialize local part: [nLocal, then per node: weight, degree,
	// (globalNbr, w)*].
	var buf []int64
	buf = append(buf, int64(d.nLocal))
	for v := int32(0); v < d.nLocal; v++ {
		buf = append(buf, d.NW[v], int64(d.Degree(v)))
		ws := d.EdgeWeights(v)
		for i, u := range d.Neighbors(v) {
			buf = append(buf, d.ToGlobal(u), ws[i])
		}
	}
	parts := d.Comm.Allgatherv(buf)
	n := d.GlobalN
	xadj := make([]int64, n+1)
	nw := make([]int64, n)
	var adj []int32
	var adjw []int64
	var gv int64
	for _, part := range parts {
		i := 0
		cnt := part[i]
		i++
		for c := int64(0); c < cnt; c++ {
			nw[gv] = part[i]
			deg := part[i+1]
			i += 2
			xadj[gv+1] = xadj[gv] + deg
			for e := int64(0); e < deg; e++ {
				adj = append(adj, int32(part[i]))
				adjw = append(adjw, part[i+1])
				i += 2
			}
			gv++
		}
	}
	if gv != n {
		panic(fmt.Sprintf("dgraph: gather reconstructed %d of %d nodes", gv, n))
	}
	return graph.FromCSR(xadj, adj, adjw, nw)
}

// EdgeCut computes the global weight of edges crossing between different
// values of part, where part has NTotal() entries (ghost entries must be in
// sync). Collective.
//
//parhip:collective
func (d *DGraph) EdgeCut(part []int64) int64 {
	var local int64
	for v := int32(0); v < d.nLocal; v++ {
		ws := d.EdgeWeights(v)
		for i, u := range d.Neighbors(v) {
			if part[v] != part[u] {
				local += ws[i]
			}
		}
	}
	// Each cut edge is seen from both endpoints: twice on one rank if both
	// endpoints are local, once on each of two ranks otherwise.
	return d.Comm.AllreduceSum1(local) / 2
}

// BlockWeights returns the global node weight of blocks 0..k-1 under part
// (NTotal() entries; only local entries are read). Collective.
//
//parhip:collective
func (d *DGraph) BlockWeights(part []int64, k int32) []int64 {
	local := make([]int64, k)
	for v := int32(0); v < d.nLocal; v++ {
		local[part[v]] += d.NW[v]
	}
	return d.Comm.AllreduceSum(local)
}

// GhostFraction returns the fraction of adjacency entries referring to
// ghosts, the locality measure the paper reports for del vs rgg graphs
// (§V-B). Collective.
//
//parhip:collective
func (d *DGraph) GhostFraction() float64 {
	var ghost int64
	for _, u := range d.Adj {
		if u >= d.nLocal {
			ghost++
		}
	}
	tot := d.Comm.AllreduceSum([]int64{ghost, int64(len(d.Adj))})
	if tot[1] == 0 {
		return 0
	}
	return float64(tot[0]) / float64(tot[1])
}
