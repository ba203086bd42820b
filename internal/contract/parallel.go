// Package contract implements cluster contraction and uncoarsening (§III
// and §IV-C of the paper) over a distributed graph; kaffpa runs them on one
// rank.
//
// Contracting a clustering replaces each cluster by a single coarse node
// whose weight is the total weight of the cluster's members; coarse nodes
// are connected iff their clusters are adjacent, with edge weight equal to
// the total weight of the fine edges between them. By construction, a
// partition of the coarse graph induces a partition of the fine graph with
// the same cut and balance.
package contract

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/mpi"
	"repro/internal/workpool"
)

// ParResult is the outcome of one parallel contraction step.
type ParResult struct {
	// Coarse is the contracted distributed graph with a fresh uniform node
	// distribution over the coarse ID space.
	Coarse *dgraph.DGraph
	// FineToCoarse maps each local fine node to its global coarse node ID
	// (the mapping C of §IV-C).
	FineToCoarse []int64
}

// ParContract contracts the clustering given by labels (NTotal entries,
// ghosts in sync; label values are global fine node IDs) following §IV-C:
//
//  1. Each cluster ID is sent to the rank owning that ID in the fine
//     distribution, which marks it in a dense array over its own range.
//  2. A prefix sum over the distinct counts, then an ascending scan of that
//     array, yields the mapping q from cluster IDs to the contiguous coarse
//     ID space.
//  3. Ranks look q up at the owners (DGraph.LookupI64) once per cluster ID
//     they reference, local or ghost, so C(v) = q(label(v)) is one array
//     read per node.
//  4. Local nodes are grouped by cluster; each cluster's outgoing arcs are
//     summed into one quotient row, which travels as one record to the rank
//     owning the coarse node in the new uniform distribution.
//  5. Owners merge the rows they receive and assemble the coarse
//     distributed graph.
//
// Collective.
//
//parhip:collective
func ParContract(fine *dgraph.DGraph, labels []int64) *ParResult {
	return ParContractWith(fine, labels, ContractOptions{})
}

// ContractOptions configures the scratch of ParContract. The zero value
// uses heap scratch; the result is the same either way.
type ContractOptions struct {
	// Pool is not read. It stays only because benchmark/adapter.go, which
	// changes only in a benchmark PR, sets it; that PR deletes it.
	Pool *workpool.Pool
	// Arena, when non-nil, backs the grouping scratch and the row
	// accumulator; the caller resets it after the contraction's scratch is
	// dead.
	Arena *arena.Arena
}

// quotientHeader is the number of header words of a quotient record:
//
//	cu, nodeWeight, count, (cv, w) × count
//
// One record is one rank's whole contribution to coarse node cu: the summed
// weight of its local members and its merged arcs to other coarse nodes.
const quotientHeader = 3

// recordChunk is the size, in words, of the chunks the quotient records are
// built in (a longer record gets a chunk of its own size).
const recordChunk = 1 << 16

// walkQuotientRecords checks that buf, built by rank src, is a sequence of
// well-formed quotient records for coarse nodes in [lo, hi) and calls fn
// with each whole record (header included; rec aliases buf). The error
// names src and the word offset of the offending record.
func walkQuotientRecords(src int, buf []int64, lo, hi int64, fn func(rec []int64)) error {
	for off := 0; off < len(buf); {
		if len(buf)-off < quotientHeader {
			return fmt.Errorf("contract: quotient record from rank %d at word %d: header truncated (%d of %d words)",
				src, off, len(buf)-off, quotientHeader)
		}
		cu, count := buf[off], buf[off+2]
		if cu < lo || cu >= hi {
			return fmt.Errorf("contract: quotient record from rank %d at word %d: coarse node %d outside [%d,%d)",
				src, off, cu, lo, hi)
		}
		body := len(buf) - off - quotientHeader
		if count < 0 || count > int64(body/2) {
			return fmt.Errorf("contract: quotient record from rank %d at word %d: %d arcs do not fit the %d words left",
				src, off, count, body)
		}
		end := off + quotientHeader + 2*int(count)
		fn(buf[off:end])
		off = end
	}
	return nil
}

// ParContractWith is ParContract with explicit scratch options.
// Collective.
//
//parhip:collective
func ParContractWith(fine *dgraph.DGraph, labels []int64, opt ContractOptions) *ParResult {
	c := fine.Comm
	size := c.Size()
	nl := fine.NLocal()
	nt := fine.NTotal()
	ar := opt.Arena
	sh := mpi.NewSharder(c)

	// Every referenced cluster ID gets a dense index in order of first
	// occurrence, local nodes first — so the clusters with a local member
	// are exactly the indices below nLocalClusters. This is the only hash
	// lookup per node; nothing below hashes per arc. The table starts small
	// and grows with the distinct labels, which are far fewer than nodes.
	clusterIdx := hashtab.NewMapI64(0)
	nodeCluster := ar.Int32s(int(nt))
	var clusterLabel []int64
	index := func(lo, hi int32) {
		for v := lo; v < hi; v++ {
			idx, inserted := clusterIdx.PutIfAbsent(labels[v], int64(len(clusterLabel)))
			if inserted {
				clusterLabel = append(clusterLabel, labels[v])
			}
			nodeCluster[v] = int32(idx)
		}
	}

	// Step 1: every distinct local cluster ID goes to its responsible rank.
	// A cluster ID is a fine node ID, so that is the ID's owner, which marks
	// it in a dense array over its own range.
	index(0, nl)
	nLocalClusters := len(clusterLabel)
	for _, l := range clusterLabel {
		sh.Add(fine.Owner(l), l)
	}
	first := fine.FirstGlobal()
	// q(first+i), once step 2 has numbered the marks. Heap, not arena: it
	// is dead after step 3, before the quotient exchange peaks.
	q := make([]int64, nl)
	var myCount int64
	sh.Exchange(func(_ int, buf []int64) {
		for _, l := range buf {
			if q[l-first] == 0 {
				q[l-first] = 1
				myCount++
			}
		}
	})

	// Step 2: contiguous coarse ID space via an exclusive prefix sum; an
	// ascending scan numbers this rank's marked IDs in ID order, and an
	// unmarked ID maps to -1.
	offset := c.ExScanSum(myCount)
	coarseN := c.AllreduceSum1(myCount)
	for i, marked := range q {
		q[i] = -1
		if marked != 0 {
			q[i] = offset
			offset++
		}
	}

	// Step 3: query q at the owner once per referenced cluster ID (local
	// and ghost).
	index(nl, nt)
	clusterCoarse := fine.LookupI64(q, clusterLabel)
	for idx, cu := range clusterCoarse {
		if cu < 0 {
			// Cannot occur: every cluster has at least one member, and that
			// member's rank reported the label in step 1.
			c.Abort()
			panic(fmt.Sprintf("contract: rank %d: cluster ID %d unknown to its owner",
				c.Rank(), clusterLabel[idx]))
		}
	}
	// C(v) for every local node: FineToCoarse.
	coarseOf := make([]int64, nl)
	for v := range coarseOf {
		coarseOf[v] = clusterCoarse[nodeCluster[v]]
	}

	// Step 4: group local nodes by cluster (counting sort by cluster index,
	// members stay in ascending node order) and build one quotient record
	// per cluster.
	clusterStart := ar.Int32s(nLocalClusters + 1)
	for v := int32(0); v < nl; v++ {
		clusterStart[nodeCluster[v]+1]++
	}
	for ci := 0; ci < nLocalClusters; ci++ {
		clusterStart[ci+1] += clusterStart[ci]
	}
	members := ar.Int32s(int(nl))
	fill := ar.Int32s(nLocalClusters)
	copy(fill, clusterStart)
	for v := int32(0); v < nl; v++ {
		ci := nodeCluster[v]
		members[fill[ci]] = v
		fill[ci]++
	}

	// The records go to the owner of cu under the new uniform distribution.
	// Group the local clusters by that owner (counting sort, cluster order
	// kept within an owner), so that one owner's records are built in one
	// go.
	coarseVtx := dgraph.UniformVtxDist(coarseN, size)
	ownerOfCoarse := func(id int64) int {
		lo, hi := 0, size
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if coarseVtx[mid] <= id {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	ownerStart := make([]int, size+1)
	for _, cu := range clusterCoarse[:nLocalClusters] {
		ownerStart[ownerOfCoarse(cu)+1]++
	}
	for o := 0; o < size; o++ {
		ownerStart[o+1] += ownerStart[o]
	}
	byOwner := ar.Int32s(nLocalClusters)
	at := slices.Clone(ownerStart[:size])
	for ci, cu := range clusterCoarse[:nLocalClusters] {
		o := ownerOfCoarse(cu)
		byOwner[at[o]] = int32(ci)
		at[o]++
	}

	// One accumulator keyed by cluster index rates every cluster's arcs in
	// turn: coarse IDs are distinct per index, so cj ≠ ci is C(u) ≠ cu, and
	// the key is an array index, not a hash. An owner's records are built
	// into chunks of at least recordChunk words, reused from owner to
	// owner, and a record never straddles two; the whole set is then copied
	// once into the exchange's scratch, sized exactly, which the exchange
	// copies onto the wire before the next owner's. A buffer that grows
	// record by record would leave each outgrown copy as garbage at the
	// level's memory peak. This rank's own records are built last and kept
	// as the scratch holds them.
	acc := hashtab.NewDenseAccumulatorIn(ar, len(clusterLabel))
	var chunks [][]int64
	var buf []int64 // the chunk being filled
	emit := func(cj, weight int64) { buf = append(buf, clusterCoarse[cj], weight) }
	build := func(o int, scratch []int64) []int64 {
		used := 0 // chunks holding this owner's records
		next := func(need int) {
			if used > 0 {
				chunks[used-1] = buf
			}
			if used == len(chunks) {
				chunks = append(chunks, nil)
			}
			if cap(chunks[used]) < need {
				chunks[used] = make([]int64, 0, max(recordChunk, need))
			}
			buf = chunks[used][:0]
			used++
		}
		buf = nil
		for _, ci := range byOwner[ownerStart[o]:ownerStart[o+1]] {
			cu := clusterCoarse[ci]
			var nodeWeight int64
			for _, v := range members[clusterStart[ci]:clusterStart[ci+1]] {
				nodeWeight += fine.NW[v]
				ws := fine.EdgeWeights(v)
				for i, u := range fine.Neighbors(v) {
					if cj := nodeCluster[u]; cj != ci {
						acc.Add(int64(cj), ws[i])
					}
				}
			}
			if need := quotientHeader + 2*acc.Len(); len(buf)+need > cap(buf) {
				next(need)
			}
			buf = append(buf, cu, nodeWeight, int64(acc.Len()))
			acc.ForEach(emit)
			acc.Reset()
		}
		if used == 0 {
			return scratch
		}
		chunks[used-1] = buf
		total := 0
		for _, ch := range chunks[:used] {
			total += len(ch)
		}
		if cap(scratch) < total {
			scratch = make([]int64, 0, total)
		}
		for _, ch := range chunks[:used] {
			scratch = append(scratch, ch...)
		}
		return scratch
	}

	// walk is the one decoder of quotient records; a malformed buffer fails
	// loudly on every rank instead of building a wrong graph.
	walk := func(src int, buf []int64, lo, hi int64, fn func(rec []int64)) {
		if err := walkQuotientRecords(src, buf, lo, hi, fn); err != nil {
			c.Abort()
			panic(fmt.Sprintf("rank %d: %v", c.Rank(), err))
		}
	}

	// Step 5: the one exchange of the assembly. The received payloads are
	// this rank's to keep, so each remote record is held once; the callback
	// validates every record, sums node weights and counts row degrees.
	lo := coarseVtx[c.Rank()]
	hi := coarseVtx[c.Rank()+1]
	cLocal := int32(hi - lo)
	nw := make([]int64, cLocal)
	rowStart := make([]int64, cLocal+1)
	received := make([][]int64, size)
	tracer := c.Tracer()
	qsp := tracer.Begin(c.Rank(), "contract.quotient")
	c.AlltoallvFunc(build, func(rk int, data []int64) {
		walk(rk, data, lo, hi, func(rec []int64) {
			row := rec[0] - lo
			nw[row] += rec[1]
			rowStart[row+1] += rec[2]
		})
		received[rk] = data
	})
	tracer.End2(qsp, "clusters", int64(nLocalClusters), "heap_mb", tracer.HeapMB())
	for v := int32(0); v < cLocal; v++ {
		rowStart[v+1] += rowStart[v]
	}
	// Bucket the arcs straight into the CSR arrays by row (counting sort,
	// O(arcs)), then canonicalize each row in place — sorted by destination,
	// contributions of different fine ranks to one coarse edge merged — and
	// compact it, turning rowStart into xadj. The result is a function of
	// the multiset of received arcs, not of the order they were emitted or
	// arrived in.
	adjG := make([]int64, rowStart[cLocal])
	adjW := make([]int64, rowStart[cLocal])
	next := slices.Clone(rowStart[:cLocal])
	for rk, buf := range received {
		walk(rk, buf, lo, hi, func(rec []int64) {
			at := next[rec[0]-lo]
			for i := quotientHeader; i < len(rec); i += 2 {
				adjG[at], adjW[at] = rec[i], rec[i+1]
				at++
			}
			next[rec[0]-lo] = at
		})
	}
	received = nil
	var longest int64
	for v := int32(0); v < cLocal; v++ {
		longest = max(longest, rowStart[v+1]-rowStart[v])
	}
	rs := graph.RowScratch[int64]{IDs: ar.Int64s(int(longest)), Ws: ar.Int64s(int(longest))}
	out, _ := graph.CanonicalizeCSR(rowStart, adjG, adjW, &rs)
	coarse := dgraph.Build(c, coarseVtx, nw, rowStart, adjG[:out], adjW[:out])
	return &ParResult{Coarse: coarse, FineToCoarse: coarseOf}
}

// ParLift transfers a partition of the fine graph up to the coarse graph.
// It requires the clustering to be partition-homogeneous (every cluster
// inside one block), which holds when the partition was used as the
// clustering constraint (V-cycles, §IV-D): each fine rank sends
// (C(v), block(v)) pairs to the coarse owners, which adopt the (consistent)
// value. The returned slice has coarse.NTotal() entries with ghosts synced.
// Collective.
//
//parhip:collective
func ParLift(fine *dgraph.DGraph, coarse *dgraph.DGraph, fineToCoarse []int64, finePart []int64) []int64 {
	c := fine.Comm
	sh := mpi.NewSharder(c)
	// The distinct coarse nodes of the local fine nodes: about the coarse
	// level's share of a rank, not the fine level's.
	seen := hashtab.NewMapI64(int(coarse.NLocal()))
	for v := int32(0); v < fine.NLocal(); v++ {
		cu := fineToCoarse[v]
		if _, inserted := seen.PutIfAbsent(cu, 0); inserted {
			sh.Add(coarse.Owner(cu), cu, finePart[v])
		}
	}
	coarsePart := make([]int64, coarse.NTotal())
	sh.Exchange(func(rk int, buf []int64) {
		if len(buf)%2 != 0 {
			c.Abort()
			panic(fmt.Sprintf("contract: rank %d sent %d words of block assignments (not pairs)", rk, len(buf)))
		}
		for i := 0; i < len(buf); i += 2 {
			lu, ok := coarse.ToLocal(buf[i])
			if !ok || coarse.IsGhost(lu) {
				continue
			}
			coarsePart[lu] = buf[i+1]
		}
	})
	coarse.SyncGhosts(coarsePart)
	return coarsePart
}

// ParProject transfers a partition of the coarse graph down to the fine
// graph: every fine local node asks the owner of its coarse representative
// for that node's block (§IV-C, uncoarsening), and ghost entries of the
// result are synchronized. coarsePart must hold one value per coarse-local
// node (extra ghost entries are ignored). Collective.
//
//parhip:collective
func ParProject(fine *dgraph.DGraph, coarse *dgraph.DGraph, fineToCoarse []int64, coarsePart []int64) []int64 {
	finePart := make([]int64, fine.NTotal())
	answers := coarse.LookupI64(coarsePart[:coarse.NLocal()], fineToCoarse)
	copy(finePart, answers)
	fine.SyncGhosts(finePart)
	return finePart
}
