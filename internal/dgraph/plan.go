package dgraph

import (
	"fmt"
	"slices"
)

// ExchangePlan is the precomputed halo-exchange structure of one
// distributed graph level (§IV-A: changed labels of interface nodes travel
// only to the adjacent PEs holding ghost copies). It is built once in
// finalize() and then drives every ghost synchronization on the level
// through sparse neighborhood collectives with reusable staging buffers, so
// the steady path neither touches non-adjacent ranks nor allocates
// per-superstep buffers.
//
// The central trick is that no setup communication is needed: for a
// symmetric adjacency, the set of vertices rank s must send to rank r (s's
// local vertices with a neighbor owned by r) equals the set of s-owned
// ghosts held by r, and both sides can order it by global ID locally —
// s's interface list ascending by local ID is ascending by global ID, and r
// sorts its ghosts-owned-by-s the same way. Full syncs therefore carry
// values only (half the volume of (id, value) pairs), and sparse pushes
// carry (position-in-send-list, value) pairs that the receiver resolves
// with one array index instead of a hash lookup.
type ExchangePlan struct {
	nbrs []int // adjacent ranks, ascending

	// Send side: for neighbor slot i, sendVtx[sendOff[i]:sendOff[i+1]]
	// lists this rank's interface vertices whose values neighbor i needs,
	// ascending by local (= global) ID.
	sendOff []int32
	sendVtx []int32

	// Recv side: for neighbor slot i, recvGhost[recvOff[i]:recvOff[i+1]]
	// holds the local ghost IDs in exactly the order neighbor i's send list
	// produces them.
	recvOff   []int32
	recvGhost []int32

	// Per-interface-vertex routing, CSR over local nodes and parallel to
	// AdjacentRanks: adjPlan[adjOff[v]+j] packs (neighbor slot << 32 |
	// position of v in that neighbor's send list) for the j-th adjacent
	// rank of v.
	adjPlan []int64

	// sendBuf is the per-neighbor staging area, reused across exchanges
	// (truncated, never freed).
	sendBuf [][]int64
}

// buildPlan derives the exchange plan from the finalized adjacency
// metadata. Collective (one dense exchange verifies that the neighbor
// relation is symmetric).
func (d *DGraph) buildPlan() {
	c := d.Comm
	p := &ExchangePlan{}

	// Neighbor set: distinct ghost-owner ranks, ascending; never this rank,
	// which owns no ghost. slotOf maps a rank to its neighbor slot.
	slotOf := make([]int32, c.Size())
	for i := range slotOf {
		slotOf[i] = -1
	}
	for _, o := range d.ghostOwner {
		slotOf[o] = 0
	}
	for r, s := range slotOf {
		if s == 0 {
			slotOf[r] = int32(len(p.nbrs))
			p.nbrs = append(p.nbrs, r)
		}
	}

	// Symmetry check: every rank tells every other rank whether it lists it
	// as a neighbor. An edge stored at one endpoint only makes the lists
	// disagree, and a neighborhood exchange would then leave one side
	// blocked forever; one dense exchange per level buys a loud, immediate
	// failure instead.
	mark := make([][]int64, c.Size())
	for _, r := range p.nbrs {
		mark[r] = []int64{1}
	}
	for r, in := range c.Alltoallv(mark) {
		theirs, mine := len(in) > 0, slotOf[r] >= 0
		if r != c.Rank() && theirs != mine {
			c.Abort()
			panic(fmt.Sprintf("dgraph: asymmetric adjacency: rank %d lists rank %d as neighbor=%v, reverse=%v",
				c.Rank(), r, mine, theirs))
		}
	}

	// Send lists: counting pass, then fill ascending by local ID, recording
	// each vertex's position in the lists it appears in.
	counts := make([]int32, len(p.nbrs))
	for v := int32(0); v < d.nLocal; v++ {
		for _, r := range d.AdjacentRanks(v) {
			counts[slotOf[r]]++
		}
	}
	p.sendOff = make([]int32, len(p.nbrs)+1)
	for i, c := range counts {
		p.sendOff[i+1] = p.sendOff[i] + c
	}
	p.sendVtx = make([]int32, p.sendOff[len(p.nbrs)])
	p.adjPlan = make([]int64, len(d.adjRankDat))
	next := append([]int32(nil), p.sendOff[:len(p.nbrs)]...)
	for v := int32(0); v < d.nLocal; v++ {
		base := d.adjRankOff[v]
		for j, r := range d.AdjacentRanks(v) {
			slot := slotOf[r]
			pos := next[slot] - p.sendOff[slot]
			p.sendVtx[next[slot]] = v
			next[slot]++
			p.adjPlan[base+int32(j)] = int64(slot)<<32 | int64(pos)
		}
	}

	// Recv lists: ghosts grouped by owner slot, each group ascending by
	// global ID — the sender's order. Owners hold contiguous, ascending ID
	// ranges, so the ghosts' global IDs sorted once are already grouped by
	// owner, in slot order; the ghost index maps each back.
	p.recvOff = make([]int32, len(p.nbrs)+1)
	for _, o := range d.ghostOwner {
		p.recvOff[slotOf[o]+1]++
	}
	for i := range p.nbrs {
		p.recvOff[i+1] += p.recvOff[i]
	}
	sorted := slices.Clone(d.ghostGlobal)
	slices.Sort(sorted)
	p.recvGhost = make([]int32, len(sorted))
	for i, g := range sorted {
		gi, _ := d.g2l.get(d.ghostGlobal, g)
		p.recvGhost[i] = d.nLocal + gi
	}

	p.sendBuf = make([][]int64, len(p.nbrs))
	d.plan = p
}

// resetStaging truncates every staging buffer (keeping capacity).
func (p *ExchangePlan) resetStaging() {
	for i := range p.sendBuf {
		p.sendBuf[i] = p.sendBuf[i][:0]
	}
}
