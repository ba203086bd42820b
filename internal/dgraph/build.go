package dgraph

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mpi"
)

// Build constructs a distributed graph when each rank already holds the CSR
// rows of its own contiguous range with neighbours given as global IDs:
// nw[i] is the weight of global node vtxdist[rank]+i, and that node's
// neighbours are adjGlobal[xadj[i]:xadj[i+1]] with weights adjw, or with
// weight 1 each when adjw is nil. Ghost
// weights are fetched from the owners, and the global edge count is
// computed collectively. It is the one constructor: FromGraph feeds it a
// range of the input graph (int32 IDs), and the parallel contraction
// algorithm feeds it each coarse level (int64 IDs). xadj and adjw are kept,
// nw is copied. Collective.
//
//parhip:collective
func Build[ID int32 | int64](c *mpi.Comm, vtxdist []int64, nw []int64, xadj []int64, adjGlobal []ID, adjw []int64) *DGraph {
	if len(vtxdist) != c.Size()+1 {
		panic(fmt.Sprintf("dgraph: vtxdist has %d entries for %d ranks", len(vtxdist), c.Size()))
	}
	lo := vtxdist[c.Rank()]
	hi := vtxdist[c.Rank()+1]
	nLocal := int32(hi - lo)
	if int32(len(nw)) != nLocal || len(xadj) != int(nLocal)+1 {
		panic("dgraph: Build called with inconsistent local arrays")
	}
	d := &DGraph{
		Comm:    c,
		GlobalN: vtxdist[c.Size()],
		VtxDist: vtxdist,
		nLocal:  nLocal,
		XAdj:    xadj,
	}
	d.Adj = make([]int32, len(adjGlobal))
	d.AdjW = adjw
	if adjw == nil {
		var longest int64
		for v := range nLocal {
			longest = max(longest, xadj[v+1]-xadj[v])
		}
		d.unitW = graph.UnitWeights(int(longest))
	}
	for i, id := range adjGlobal {
		if gu := int64(id); gu >= lo && gu < hi {
			d.Adj[i] = int32(gu - lo)
		} else {
			d.Adj[i] = d.internGhost(gu)
		}
	}
	d.NW = append(append([]int64(nil), nw...), make([]int64, len(d.ghostGlobal))...)
	d.finalize()
	// Fetch ghost node weights from their owners.
	if d.Comm.Size() > 0 {
		answers := d.LookupI64(d.NW[:d.nLocal], d.ghostGlobal)
		copy(d.NW[d.nLocal:], answers)
	}
	// Every edge is stored as one arc at each endpoint: twice here when
	// both are local, once here and once at the other owner when not.
	d.GlobalM = c.AllreduceSum1(int64(len(d.Adj))) / 2
	return d
}
