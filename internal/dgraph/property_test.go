package dgraph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// Property tests over random graphs and rank counts: the distributed view
// must agree with the sequential graph no matter how nodes are split.

func TestPropertyDistributedMatchesSequential(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		P := int(pRaw%6) + 1
		r := rng.New(seed)
		n := r.Int31n(120) + 5
		b := graph.NewBuilder(n)
		for v := int32(0); v < n; v++ {
			b.SetNodeWeight(v, r.Int64n(9)+1)
		}
		for i := 0; i < int(n)*3; i++ {
			u, v := r.Int31n(n), r.Int31n(n)
			if u != v {
				b.AddEdgeW(u, v, r.Int64n(4)+1)
			}
		}
		g := b.Build()
		ok := true
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := FromGraph(c, g)
			if d.Validate() != nil {
				ok = false
				return
			}
			// Ghost weights are checked against g itself: Validate's check
			// asks the owners, which is how Build filled them in.
			for gh := d.NLocal(); gh < d.NTotal(); gh++ {
				if want := g.NW[d.ToGlobal(gh)]; d.NW[gh] != want {
					t.Errorf("seed %d P=%d rank %d ghost %d: weight %d, g has %d",
						seed, P, c.Rank(), gh, d.NW[gh], want)
					ok = false
					return
				}
			}
			// The rank's edge weights are g's own range, not a copy.
			a := g.XAdj[d.FirstGlobal()]
			if len(d.AdjW) > 0 && &d.AdjW[0] != &g.AdjW[a] {
				t.Errorf("seed %d P=%d rank %d: AdjW does not alias g.AdjW[%d:]", seed, P, c.Rank(), a)
				ok = false
				return
			}
			// Per-node degree and weighted degree agree with g.
			for v := int32(0); v < d.NLocal(); v++ {
				gv := int32(d.ToGlobal(v))
				if d.Degree(v) != g.Degree(gv) || d.NW[v] != g.NW[gv] {
					ok = false
					return
				}
				var wd int64
				for _, w := range d.EdgeWeights(v) {
					wd += w
				}
				if wd != testutil.WeightedDegree(g, gv) {
					ok = false
					return
				}
			}
			// Global aggregates.
			if d.GlobalNodeWeight() != g.TotalNodeWeight() {
				ok = false
			}
			if d.GlobalM != g.NumEdges() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEdgeCutMatchesSequential(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		P := int(pRaw%5) + 1
		g := gen.RGG(150, seed)
		k := int64(4)
		// Sequential reference cut of block(v) = v mod k.
		var ref int64
		for v := int32(0); v < g.NumNodes(); v++ {
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if int64(v)%k != int64(u)%k {
					ref += ws[i]
				}
			}
		}
		ref /= 2
		ok := true
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := FromGraph(c, g)
			part := make([]int64, d.NTotal())
			for v := int32(0); v < d.NTotal(); v++ {
				part[v] = d.ToGlobal(v) % k
			}
			if d.EdgeCut(part) != ref {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGatherIdentity(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		P := int(pRaw%4) + 1
		g := gen.BarabasiAlbert(80, 3, seed)
		ok := true
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := FromGraph(c, g)
			got := d.Gather()
			if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
				ok = false
				return
			}
			for v := int32(0); v < g.NumNodes(); v++ {
				a, b := g.Neighbors(v), got.Neighbors(v)
				if len(a) != len(b) {
					ok = false
					return
				}
				for i := range a {
					if a[i] != b[i] {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGhostNeighborsMatchBruteForce: the ghost → local reverse CSR
// lists, for every ghost, exactly the local nodes with an arc to it,
// ascending — and is built once: asking again hands back the same storage.
func TestPropertyGhostNeighborsMatchBruteForce(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		P := int(pRaw%3) + 2 // 2, 3, 4
		r := rng.New(seed)
		n := r.Int31n(120) + 5
		b := graph.NewBuilder(n)
		for i := 0; i < int(n)*3; i++ {
			if u, v := r.Int31n(n), r.Int31n(n); u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		ok := true
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := FromGraph(c, g)
			for gh := d.NLocal(); gh < d.NTotal(); gh++ {
				var want []int32
				for v := int32(0); v < d.NLocal(); v++ {
					if slices.Contains(d.Neighbors(v), gh) {
						want = append(want, v)
					}
				}
				got := d.GhostNeighbors(gh)
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Errorf("seed %d P=%d rank %d ghost %d: reverse row %v, brute force %v",
						seed, P, c.Rank(), gh, got, want)
					ok = false
					return
				}
				if again := d.GhostNeighbors(gh); &again[0] != &got[0] {
					t.Errorf("seed %d P=%d rank %d ghost %d: second call rebuilt the reverse CSR", seed, P, c.Rank(), gh)
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
