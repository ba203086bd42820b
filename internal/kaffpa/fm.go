package kaffpa

import (
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

// gainHeap is a max-heap of move candidates by (gain, rand): container/heap's
// Init, Push and Pop on the concrete type, so the same pop order, unboxed.
type gainHeap []moveCand

func (h gainHeap) less(i, j int) bool {
	return h[i].gain > h[j].gain || h[i].gain == h[j].gain && h[i].rand > h[j].rand
}

func (h gainHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *gainHeap) push(c moveCand) {
	*h = append(*h, c)
	s := *h
	for j := len(s) - 1; j > 0 && s.less(j, (j-1)/2); j = (j - 1) / 2 {
		s[j], s[(j-1)/2] = s[(j-1)/2], s[j]
	}
}

func (h *gainHeap) pop() moveCand {
	s, n := *h, len(*h)-1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

func (h gainHeap) down(i, n int) {
	for j := 2*i + 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
	}
}

// gainCache is one fmRefine call's record of each node's edge weight into
// every block (Mt-KaHyPar's gain cache): a row of k entries, kept current by
// move, for each node of degree >= k — at most 2m entries at any k. Other
// nodes are rated by a neighbour walk, no dearer than a k-wide scan.
type gainCache struct {
	k     int
	rowOf []int32 // 1 + v's row index, 0 for a node without one
	conn  []int64 // row r is conn[r*k : (r+1)*k]
	walk  *hashtab.DenseAccumulator
}

func newGainCache(g *graph.Graph, p []int32, k int) *gainCache {
	c := &gainCache{k: k, rowOf: make([]int32, g.NumNodes()), walk: hashtab.NewDenseAccumulator(k)}
	rows := int32(0)
	for v := range c.rowOf {
		if int(g.Degree(int32(v))) >= k {
			rows++
			c.rowOf[v] = rows
		}
	}
	c.conn = make([]int64, int(rows)*k)
	for v := range c.rowOf {
		if row := c.row(int32(v)); row != nil {
			nbrs := g.Neighbors(int32(v))
			for i, w := range g.EdgeWeights(int32(v)) {
				row[p[nbrs[i]]] += w
			}
		}
	}
	return c
}

// row returns v's connectivity row, or nil when v has none.
func (c *gainCache) row(v int32) []int64 {
	if c.rowOf[v] == 0 {
		return nil
	}
	i := int(c.rowOf[v]-1) * c.k
	return c.conn[i : i+c.k]
}

// move records that v left block from for block to.
func (c *gainCache) move(g *graph.Graph, v, from, to int32) {
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		if row := c.row(u); row != nil {
			row[from] -= ws[i]
			row[to] += ws[i]
		}
	}
}

// bestMove computes the best foreign-target move of v: the neighbouring
// block b of highest gain that v fits into under lmax[b], the lighter block
// on equal gain. The walk (GatherBlocks) keeps the first-touched of equally
// good blocks; the row scan (block order; 0 is no edge, as weights are
// positive) asks touchedFirst on such a tie, so both pick the same block.
//
//parhip:hotpath
func bestMove(g *graph.Graph, p []int32, weight, lmax []int64, c *gainCache, v int32) (int32, int64, bool) {
	cur, nw := int64(p[v]), g.NW[v]
	var bt, bg int64 = -1, 0
	if row := c.row(v); row != nil {
		curConn := row[cur]
		for i, conn := range row {
			b, gain := int64(i), conn-curConn
			if conn == 0 || b == cur || weight[b]+nw > lmax[b] {
				continue
			}
			if beats(weight, b, gain, bt, bg) || gain == bg && weight[b] == weight[bt] && touchedFirst(g, p, v, b, bt) {
				bt, bg = b, gain
			}
		}
		return int32(bt), bg, bt >= 0
	}
	if !sclp.GatherBlocks(c.walk, g.Neighbors(v), g.EdgeWeights(v), p, v, false) {
		return -1, 0, false
	}
	curConn, _ := c.walk.Get(cur)
	c.walk.ForEach(func(b, conn int64) {
		if b != cur && weight[b]+nw <= lmax[b] && beats(weight, b, conn-curConn, bt, bg) {
			bt, bg = b, conn-curConn
		}
	})
	return int32(bt), bg, bt >= 0
}

// beats reports whether a move to block b for gain beats the best so far,
// to bt for bg (none when bt < 0): a higher gain, or a lighter block.
func beats(weight []int64, b, gain, bt, bg int64) bool {
	return bt < 0 || gain > bg || (gain == bg && weight[b] < weight[bt])
}

// touchedFirst reports whether v's neighbour list reaches block a before
// block b; v must have a neighbour in one of them.
func touchedFirst(g *graph.Graph, p []int32, v int32, a, b int64) bool {
	for _, u := range g.Neighbors(v) {
		if x := int64(p[u]); x == a || x == b {
			return x == a
		}
	}
	panic("kaffpa: touchedFirst on blocks v has no edge to")
}

// fmRefine performs rounds of greedy k-way boundary refinement in the
// spirit of Fiduccia-Mattheyses, with k = len(lmax) blocks, block b bounded
// by lmax[b]: boundary nodes are kept in a max-gain priority queue and moved
// while gain is non-negative and the balance bound permits, each node at
// most once per round. It returns the number of moves performed and never
// increases the edge cut.
func fmRefine(g *graph.Graph, p []int32, lmax []int64, maxRounds int, seed uint64) int {
	n := g.NumNodes()
	k := len(lmax)
	if n == 0 || k < 2 {
		return 0
	}
	r := rng.New(seed)
	weight := make([]int64, k)
	for v := int32(0); v < n; v++ {
		weight[p[v]] += g.NW[v]
	}
	cache := newGainCache(g, p, k)
	stamp := make([]uint32, n)
	movedRound := make([]uint32, n) // round number when last moved; 0 = never
	totalMoves := 0
	var h gainHeap

	for round := uint32(1); round <= uint32(maxRounds); round++ {
		h = h[:0]
		for v := int32(0); v < n; v++ {
			// Only boundary nodes have a move; bestMove finds none for the rest.
			if t, gain, ok := bestMove(g, p, weight, lmax, cache, v); ok && gain >= 0 {
				h = append(h, moveCand{gain: gain, rand: r.Uint32(), node: v, target: t, stamp: stamp[v]})
			}
		}
		h.init()
		roundMoves := 0
		for len(h) > 0 {
			c := h.pop()
			v := c.node
			if stamp[v] != c.stamp || movedRound[v] == round {
				continue // stale or already moved this round
			}
			t, gain, ok := bestMove(g, p, weight, lmax, cache, v)
			if !ok || gain < 0 {
				continue
			}
			if gain < c.gain {
				// Gain decayed since push; requeue with the fresh value.
				stamp[v]++
				h.push(moveCand{gain: gain, rand: r.Uint32(), node: v, target: t, stamp: stamp[v]})
				continue
			}
			if gain == 0 && weight[t]+g.NW[v] >= weight[p[v]] {
				continue // zero-gain moves only when they improve balance
			}
			weight[p[v]] -= g.NW[v]
			weight[t] += g.NW[v]
			cache.move(g, v, p[v], t)
			p[v] = t
			movedRound[v] = round
			stamp[v]++
			roundMoves++
			// Neighbours' gains changed; requeue them.
			for _, u := range g.Neighbors(v) {
				if movedRound[u] == round {
					continue
				}
				if ut, ugain, uok := bestMove(g, p, weight, lmax, cache, u); uok && ugain >= 0 {
					stamp[u]++
					h.push(moveCand{gain: ugain, rand: r.Uint32(), node: u, target: ut, stamp: stamp[u]})
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

// uniformBounds returns k copies of lmax, fmRefine's bounds for k equal blocks.
func uniformBounds(k int32, lmax int64) []int64 {
	b := make([]int64, k)
	for i := range b {
		b[i] = lmax
	}
	return b
}
