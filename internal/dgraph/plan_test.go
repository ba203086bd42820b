package dgraph

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// randomGraph builds a connected-ish random weighted graph for plan tests.
func randomGraph(seed uint64) *graph.Graph {
	r := rng.New(seed)
	n := r.Int31n(150) + 4
	b := graph.NewBuilder(n)
	// A spine keeps most nodes non-isolated; random extra edges create
	// irregular cross-rank adjacency.
	for v := int32(1); v < n; v++ {
		if r.Intn(4) != 0 {
			b.AddEdgeW(v-1, v, r.Int64n(5)+1)
		}
	}
	for i := int32(0); i < n*2; i++ {
		u, v := r.Int31n(n), r.Int31n(n)
		if u != v {
			b.AddEdgeW(u, v, r.Int64n(5)+1)
		}
	}
	return b.Build()
}

func TestPlanStructureConsistent(t *testing.T) {
	g := randomGraph(11)
	const P = 4
	mpi.NewWorld(P).Run(func(c *mpi.Comm) {
		d := FromGraph(c, g)
		p := d.Plan()
		// Every ghost owner appears as a neighbor and vice versa.
		owners := map[int32]bool{}
		for gi := range d.ghostGlobal {
			owners[d.ghostOwner[gi]] = true
		}
		if len(owners) != len(p.nbrs) {
			t.Errorf("rank %d: %d ghost owners but %d plan neighbors", c.Rank(), len(owners), len(p.nbrs))
		}
		for _, r := range p.nbrs {
			if !owners[r] {
				t.Errorf("rank %d: neighbor %d owns no ghosts here", c.Rank(), r)
			}
		}
		// Send lists contain interface vertices ascending, each adjacent to
		// the neighbor in question.
		for i := range p.nbrs {
			list := p.sendVtx[p.sendOff[i]:p.sendOff[i+1]]
			for j, v := range list {
				if j > 0 && list[j-1] >= v {
					t.Errorf("rank %d: send list for %d not ascending", c.Rank(), p.nbrs[i])
				}
				found := false
				for _, r := range d.AdjacentRanks(v) {
					if r == p.nbrs[i] {
						found = true
					}
				}
				if !found {
					t.Errorf("rank %d: vertex %d in send list for %d but not adjacent", c.Rank(), v, p.nbrs[i])
				}
			}
		}
		// Counterpart cardinality: my recv count from neighbor i must equal
		// that neighbor's send count towards me. Verified by exchanging the
		// counts themselves.
		out := make([][]int64, len(p.nbrs))
		for i := range p.nbrs {
			out[i] = []int64{int64(p.sendOff[i+1] - p.sendOff[i])}
		}
		p.topo.NeighborAlltoallv(out, func(i int, data []int64) {
			want := int64(p.recvOff[i+1] - p.recvOff[i])
			if data[0] != want {
				t.Errorf("rank %d: neighbor %d sends %d values, I expect %d ghosts",
					c.Rank(), p.nbrs[i], data[0], want)
			}
		})
	})
}

// TestPropertyPlanExchangeMatchesDenseOracle drives the plan-based
// SyncGhosts/PushGhosts and the retained dense oracles over 50 random
// (graph, rank count) instances and requires bit-identical label/ghost
// state from both paths.
func TestPropertyPlanExchangeMatchesDenseOracle(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		seed := uint64(trial + 1)
		P := trial%7 + 1
		g := randomGraph(seed)
		failed := false
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := FromGraph(c, g)
			r := rng.New(seed).Split(uint64(c.Rank() + 101))

			// Full sync: random local values, ghost tails filled both ways.
			valsPlan := make([]int64, d.NTotal())
			valsDense := make([]int64, d.NTotal())
			for v := int32(0); v < d.NLocal(); v++ {
				x := r.Int64n(1 << 30)
				valsPlan[v] = x
				valsDense[v] = x
			}
			d.SyncGhosts(valsPlan)
			d.syncGhostsDense(valsDense)
			for v := range valsPlan {
				if valsPlan[v] != valsDense[v] {
					failed = true
					return
				}
			}

			// Sparse push: mutate a random subset of interface nodes and
			// push through both paths.
			var changed []int32
			for v := int32(0); v < d.NLocal(); v++ {
				if d.IsInterface(v) && r.Intn(3) == 0 {
					x := r.Int64n(1 << 30)
					valsPlan[v] = x
					valsDense[v] = x
					changed = append(changed, v)
				}
			}
			d.PushGhosts(valsPlan, changed)
			d.pushGhostsDense(valsDense, changed)
			for v := range valsPlan {
				if valsPlan[v] != valsDense[v] {
					failed = true
					return
				}
			}
		})
		if failed {
			t.Fatalf("trial %d (seed %d, P=%d): plan-based exchange diverged from dense oracle", trial, seed, P)
		}
	}
}

// TestSyncGhostsSendsNothingToNonAdjacentRanks is the comm-volume
// regression guard of the sparse plan: on a path graph split into
// contiguous chunks, only consecutive ranks share interface edges, and a
// plan-based sync must keep every other pair silent.
func TestSyncGhostsSendsNothingToNonAdjacentRanks(t *testing.T) {
	const P = 4
	g := graph.Path(400) // rank r only adjacent to r-1 and r+1
	w := mpi.NewWorld(P)
	// Construction (plan handshake included) in a first Run; the traffic
	// snapshot in between then isolates the steady-state syncs.
	ds := make([]*DGraph, P)
	vals := make([][]int64, P)
	w.Run(func(c *mpi.Comm) {
		d := FromGraph(c, g)
		ds[c.Rank()] = d
		vs := make([]int64, d.NTotal())
		for v := int32(0); v < d.NLocal(); v++ {
			vs[v] = d.ToGlobal(v) * 3
		}
		vals[c.Rank()] = vs
	})
	var before [P][P]int64
	for s := 0; s < P; s++ {
		for dst := 0; dst < P; dst++ {
			before[s][dst] = w.PairMessages(s, dst)
		}
	}
	w.Run(func(c *mpi.Comm) {
		d := ds[c.Rank()]
		for i := 0; i < 5; i++ {
			d.SyncGhosts(vals[c.Rank()])
		}
	})
	for s := 0; s < P; s++ {
		for dst := 0; dst < P; dst++ {
			delta := w.PairMessages(s, dst) - before[s][dst]
			adjacent := dst == s-1 || dst == s+1
			if s == dst {
				continue
			}
			if !adjacent && delta > 0 {
				t.Errorf("non-adjacent pair %d->%d exchanged %d messages during SyncGhosts", s, dst, delta)
			}
			if adjacent && delta == 0 {
				t.Errorf("adjacent pair %d->%d exchanged nothing", s, dst)
			}
		}
	}
}

// TestPushGhostsMalformedBuffersPanicLoudly verifies the decode hardening:
// an odd-length pair buffer or an out-of-range position must poison the
// world and panic with a diagnosable message, never silently truncate.
func TestPushGhostsMalformedBuffersPanicLoudly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []int64
		want    string
	}{
		{"odd-length", []int64{42}, "odd"},
		{"position-out-of-range", []int64{1 << 40, 7}, "position"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("expected a loud panic for a malformed pair buffer")
				}
				msg := fmt.Sprint(p)
				if !strings.Contains(msg, tc.want) && !strings.Contains(msg, "poisoned") {
					t.Fatalf("unhelpful panic: %v", msg)
				}
			}()
			g := graph.Path(40)
			mpi.NewWorld(2).Run(func(c *mpi.Comm) {
				d := FromGraph(c, g)
				if c.Rank() == 0 {
					// Stage a malformed buffer through the plan's raw staging
					// API; this lines up with rank 1's PushGhosts superstep.
					d.Plan().AddToRank(1, tc.payload...)
					d.Plan().Exchange(func(int32, []int64) {})
				} else {
					vals := make([]int64, d.NTotal())
					d.PushGhosts(vals, nil)
				}
			})
		})
	}
}
