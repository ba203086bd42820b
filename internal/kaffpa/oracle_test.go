package kaffpa

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/rng"
	"repro/internal/sclp"
	"repro/internal/testutil"
)

// oracleBestMove is fmRefine's bestMove closure as it stood at the parent of
// PR 22, kept verbatim (its captured variables turned into parameters) as a
// test oracle: every neighbour is accumulated into a hash accumulator, own
// block included, whether or not the node has a foreign neighbour at all.
func oracleBestMove(g *graph.Graph, p []int32, weight []int64, lmax int64,
	conn *hashtab.AccumulatorI64, v int32) (int32, int64, bool) {

	conn.Reset()
	ws := g.EdgeWeights(v)
	for i, u := range g.Neighbors(v) {
		conn.Add(int64(p[u]), ws[i])
	}
	curConn, _ := conn.Get(int64(p[v]))
	var bt int32 = -1
	var bg int64
	found := false
	conn.ForEach(func(label, c int64) {
		b := int32(label)
		if b == p[v] || weight[b]+g.NW[v] > lmax {
			return
		}
		gain := c - curConn
		if !found || gain > bg || (gain == bg && weight[b] < weight[bt]) {
			bt, bg, found = b, gain, true
		}
	})
	return bt, bg, found
}

// TestBestMoveMatchesOracle: bestMove against the parent's, node by node,
// on testutil.KernelGraph (locality, so that region-shaped partitions leave
// interior nodes; weighted edges and nodes, isolated nodes, a hub of degree
// > 64) across balance bounds from "everything fits" to "nothing fits". bestMove
// draws nothing from the RNG, so target, gain and found are the whole
// contract. It reads a gainCache built for the partition, so both its
// evaluations are held to the oracle: the row scan for nodes of degree >= k
// (most nodes at k=2, the hub alone at k=16) and the neighbour walk.
func TestBestMoveMatchesOracle(t *testing.T) {
	for trial := uint64(0); trial < 12; trial++ {
		r := rng.New(400 + trial)
		g := testutil.KernelGraph(r, 1+3*int64(trial%2)) // unit and weighted edges by turns
		n := g.NumNodes()

		k := []int32{2, 5, 16}[trial%3]
		p := make([]int32, n)
		weight := make([]int64, k)
		for v := range p {
			p[v] = int32(v) * 2 * k / n % k // 2k regions over the ring
			if r.Intn(8) == 0 {
				p[v] = r.Int31n(k)
			}
			weight[p[v]] += g.NW[v]
		}
		var heaviest, lightest int64 = 0, 1 << 62
		for _, w := range weight {
			heaviest, lightest = max(heaviest, w), min(lightest, w)
		}
		oldConn, cache := hashtab.NewAccumulatorI64(64), newGainCache(g, p, int(k))
		for _, lmax := range []int64{heaviest + 4, (heaviest + lightest) / 2, lightest} {
			interior := int32(0)
			for v := int32(0); v < n; v++ {
				wt, wg, wok := oracleBestMove(g, p, weight, lmax, oldConn, v)
				gt, gg, gok := bestMove(g, p, weight, uniformBounds(k, lmax), cache, v)
				if gt != wt || gg != wg || gok != wok {
					t.Fatalf("trial %d k=%d lmax=%d node %d: bestMove = (%d, %d, %v), oracle (%d, %d, %v)",
						trial, k, lmax, v, gt, gg, gok, wt, wg, wok)
				}
				boundary := false
				for _, u := range g.Neighbors(v) {
					boundary = boundary || p[u] != p[v]
				}
				if !boundary {
					interior++
				}
			}
			if interior == 0 || interior == n {
				t.Fatalf("trial %d: %d of %d nodes interior: want both paths taken", trial, interior, n)
			}
		}
	}
}

// TestGainCacheMatchesRecount: random move sequences on testutil.KernelGraph
// at k in {2, 5, 16}. After every move, each node's cached row must equal a
// GatherBlocks recount of its neighbours' blocks. Every trial has both row
// nodes (degree >= k) and walk nodes.
func TestGainCacheMatchesRecount(t *testing.T) {
	for trial := uint64(0); trial < 6; trial++ {
		r := rng.New(500 + trial)
		g := testutil.KernelGraph(r, 1+3*int64(trial%2))
		n := g.NumNodes()
		k := []int32{2, 5, 16}[trial%3]
		p := make([]int32, n)
		for v := range p {
			p[v] = r.Int31n(k)
		}
		c := newGainCache(g, p, int(k))
		rows := int32(0)
		for v := int32(0); v < n; v++ {
			if c.row(v) != nil {
				rows++
			}
		}
		if rows == 0 || rows == n {
			t.Fatalf("trial %d k=%d: %d of %d nodes have a row: want rows and walks", trial, k, rows, n)
		}
		recount := hashtab.NewDenseAccumulator(int(k))
		for move := 0; move < 300; move++ {
			v, to := r.Int31n(n), r.Int31n(k)
			c.move(g, v, p[v], to)
			p[v] = to
			for u := int32(0); u < n; u++ {
				row := c.row(u)
				if row == nil {
					continue
				}
				sclp.GatherBlocks(recount, g.Neighbors(u), g.EdgeWeights(u), p, u, true)
				for b, got := range row {
					if want, _ := recount.Get(int64(b)); got != want {
						t.Fatalf("trial %d k=%d move %d: node %d row[%d] = %d, recount %d", trial, k, move, u, b, got, want)
					}
				}
			}
		}
	}
}
