package kaffpa

import (
	"container/heap"

	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/rng"
	"repro/internal/sclp"
)

// moveCand is a candidate move in the gain priority queue.
type moveCand struct {
	gain   int64
	rand   uint32 // random tiebreak among equal gains
	node   int32
	target int32
	stamp  uint32 // node stamp at push time; stale entries are skipped
}

type gainHeap []moveCand

func (h gainHeap) Len() int { return len(h) }
func (h gainHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].rand > h[j].rand
}
func (h gainHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *gainHeap) Push(x any)   { *h = append(*h, x.(moveCand)) }
func (h *gainHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// bestMove computes the best foreign-target move of v under lmax: the
// eligible neighbouring block of highest gain, the lighter block on equal
// gain. A node with no neighbour outside its block has none, and is told
// apart by the neighbour scan alone.
//
//parhip:hotpath
func bestMove(g *graph.Graph, p []int32, weight []int64, lmax int64,
	conn *hashtab.DenseAccumulator, v int32) (int32, int64, bool) {

	if !sclp.GatherBlocks(conn, g.Neighbors(v), g.EdgeWeights(v), p, v, false) {
		return -1, 0, false
	}
	cur := int64(p[v])
	curConn, _ := conn.Get(cur)
	var bt int64 = -1
	var bg int64
	conn.ForEach(func(b, c int64) {
		if b == cur || weight[b]+g.NW[v] > lmax {
			return
		}
		gain := c - curConn
		if bt < 0 || gain > bg || (gain == bg && weight[b] < weight[bt]) {
			bt, bg = b, gain
		}
	})
	return int32(bt), bg, bt >= 0
}

// fmRefine performs rounds of greedy k-way boundary refinement in the
// spirit of Fiduccia-Mattheyses: boundary nodes are kept in a max-gain
// priority queue and moved while gain is non-negative and the balance bound
// permits, each node at most once per round. It returns the number of moves
// performed and never increases the edge cut.
func fmRefine(g *graph.Graph, p []int32, k int32, lmax int64, maxRounds int, seed uint64) int {
	n := g.NumNodes()
	if n == 0 || k < 2 {
		return 0
	}
	r := rng.New(seed)
	weight := make([]int64, k)
	for v := int32(0); v < n; v++ {
		weight[p[v]] += g.NW[v]
	}
	conn := hashtab.NewDenseAccumulator(int(k))
	stamp := make([]uint32, n)
	movedRound := make([]uint32, n) // round number when last moved; 0 = never
	totalMoves := 0

	for round := uint32(1); round <= uint32(maxRounds); round++ {
		h := gainHeap{}
		for v := int32(0); v < n; v++ {
			// Only boundary nodes have a move; bestMove finds none for the rest.
			if t, gain, ok := bestMove(g, p, weight, lmax, conn, v); ok && gain >= 0 {
				h = append(h, moveCand{gain: gain, rand: r.Uint32(), node: v, target: t, stamp: stamp[v]})
			}
		}
		heap.Init(&h)
		roundMoves := 0
		for h.Len() > 0 {
			c := heap.Pop(&h).(moveCand)
			v := c.node
			if stamp[v] != c.stamp || movedRound[v] == round {
				continue // stale or already moved this round
			}
			t, gain, ok := bestMove(g, p, weight, lmax, conn, v)
			if !ok || gain < 0 {
				continue
			}
			if gain < c.gain {
				// Gain decayed since push; requeue with the fresh value.
				stamp[v]++
				heap.Push(&h, moveCand{gain: gain, rand: r.Uint32(), node: v, target: t, stamp: stamp[v]})
				continue
			}
			if gain == 0 && weight[t]+g.NW[v] >= weight[p[v]] {
				continue // zero-gain moves only when they improve balance
			}
			weight[p[v]] -= g.NW[v]
			weight[t] += g.NW[v]
			p[v] = t
			movedRound[v] = round
			stamp[v]++
			roundMoves++
			// Neighbours' gains changed; requeue them.
			for _, u := range g.Neighbors(v) {
				if movedRound[u] == round {
					continue
				}
				if ut, ugain, uok := bestMove(g, p, weight, lmax, conn, u); uok && ugain >= 0 {
					stamp[u]++
					heap.Push(&h, moveCand{gain: ugain, rand: r.Uint32(), node: u, target: ut, stamp: stamp[u]})
				}
			}
		}
		totalMoves += roundMoves
		if roundMoves == 0 {
			break
		}
	}
	return totalMoves
}
