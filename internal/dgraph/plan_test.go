package dgraph

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
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
		p := d.plan
		// Every ghost owner appears as a neighbor and vice versa.
		owners := map[int]bool{}
		for gi := range d.ghostGlobal {
			owners[int(d.ghostOwner[gi])] = true
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
					if int(r) == p.nbrs[i] {
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
		c.NeighborAlltoallv(p.nbrs, out, func(i int, data []int64) {
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

// pairCounter is an in-process transport that counts the frames sent from
// each rank to each other rank.
type pairCounter struct {
	transport.Transport
	frames []atomic.Int64 // at [src*size+dst]
}

func newPairCounter(size int) *pairCounter {
	return &pairCounter{Transport: transport.NewInproc(size), frames: make([]atomic.Int64, size*size)}
}

func (p *pairCounter) Send(f transport.Frame) {
	p.frames[f.Src*p.Size()+f.Dst].Add(1)
	p.Transport.Send(f)
}

func (p *pairCounter) count(src, dst int) int64 { return p.frames[src*p.Size()+dst].Load() }

// TestSyncGhostsSendsNothingToNonAdjacentRanks is the comm-volume
// regression guard of the sparse plan: on a path graph split into
// contiguous chunks, only consecutive ranks share interface edges, and a
// plan-based sync must keep every other pair silent.
func TestSyncGhostsSendsNothingToNonAdjacentRanks(t *testing.T) {
	const P = 4
	g := graph.Path(400) // rank r only adjacent to r-1 and r+1
	tr := newPairCounter(P)
	w, err := mpi.NewWorldOn(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Construction (symmetry check included) in a first Run; the traffic
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
			before[s][dst] = tr.count(s, dst)
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
			delta := tr.count(s, dst) - before[s][dst]
			adjacent := dst == s-1 || dst == s+1
			if s == dst {
				continue
			}
			if !adjacent && delta > 0 {
				t.Errorf("non-adjacent pair %d->%d exchanged %d frames during SyncGhosts", s, dst, delta)
			}
			if adjacent && delta == 0 {
				t.Errorf("adjacent pair %d->%d exchanged nothing", s, dst)
			}
		}
	}
}

// TestBuildAsymmetricAdjacencyPanics hands Build an edge between two ranks
// that only one endpoint lists. The neighbor lists then disagree, and a
// neighborhood exchange would leave one side blocked forever; instead the
// detecting rank aborts the world, the others unwind, and Run re-raises a
// panic that names the fault.
func TestBuildAsymmetricAdjacencyPanics(t *testing.T) {
	const P = 3
	vd := UniformVtxDist(6, P) // rank r owns nodes 2r and 2r+1
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			xadj, adj := []int64{0, 0, 0}, []int64(nil)
			if c.Rank() == 0 {
				// Node 0 lists node 2 (rank 1); node 2 does not list node 0.
				xadj, adj = []int64{0, 1, 1}, []int64{2}
			}
			Build(c, vd, []int64{1, 1}, xadj, adj, make([]int64, len(adj)))
		})
	}()
	select {
	case p := <-done:
		if msg := fmt.Sprint(p); !strings.Contains(msg, "asymmetric") {
			t.Errorf("want a panic naming the asymmetry, got %q", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Build on an asymmetric adjacency hung instead of panicking")
	}
}

// TestPushGhostsMalformedBuffersPanicLoudly verifies the decode hardening:
// an odd-length pair buffer or an out-of-range position must abort the
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
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("unhelpful panic: %v", msg)
				}
			}()
			g := graph.Path(40)
			mpi.NewWorld(2).Run(func(c *mpi.Comm) {
				d := FromGraph(c, g)
				if c.Rank() == 0 {
					// Send a malformed buffer in a raw neighbor exchange;
					// this lines up with rank 1's PushGhosts superstep.
					c.NeighborAlltoallv([]int{1}, [][]int64{tc.payload}, func(int, []int64) {})
				} else {
					vals := make([]int64, d.NTotal())
					d.PushGhosts(vals, nil)
				}
			})
		})
	}
}
