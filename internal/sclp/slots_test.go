package sclp

import (
	"fmt"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// slotWatch is one rank's view of a ParCluster run in
// TestClusterSlotsLeftClean.
type slotWatch struct {
	constraint []int64 // NTotal entries, or nil
	u          int64

	// The previous step: its node, the label index it started from, and
	// the oracle's choice for it (-1 to stay).
	prev           int32
	prevFrom, want int64

	labels   []int64 // the label indices the oracle reads, widened
	weight   []int64 // recounted cluster weights by label index
	conn     *hashtab.AccumulatorI64
	slots    []clusterSlot // as the last step saw them
	steps    int
	foreign  int // neighbours seen carrying a foreign label
	firstErr error

	// The lane's selection count at the last check, and its RNG as the
	// previous step leaves it unless a phase boundary reseeds it.
	selected int64
	rngAfter rng.RNG
}

// step checks the state one sweep step starts from and predicts its choice.
func (w *slotWatch) step(d *dgraph.DGraph, v int32, labels []int32, slots []clusterSlot, ln *lane) {
	if w.firstErr != nil {
		return
	}
	fail := func(format string, args ...any) {
		w.firstErr = fmt.Errorf("step %d, node %d: "+format, append([]any{w.steps, v}, args...)...)
	}
	if w.steps > 0 {
		want := w.want
		if want < 0 {
			want = w.prevFrom
		}
		if got := int64(labels[w.prev]); got != want {
			fail("the previous step left node %d on label index %d, the hashed oracle chose %d", w.prev, got, want)
			return
		}
	}
	// Only a selection writes ratings or moves a node, and only a phase
	// boundary (which reseeds the lane) brings ghost updates; any other
	// step leaves the slots as the last check saw them. After a selection
	// the recounted weights follow the oracle's move; after a boundary they
	// are counted afresh.
	boundary := w.steps == 0 || ln.rng != w.rngAfter
	if selected := ln.evaluated - ln.interior; boundary || selected != w.selected {
		w.selected = selected
		for l, s := range slots {
			if s.rating != 0 {
				fail("label index %d still rated %d", l, s.rating)
				return
			}
		}
		if boundary {
			w.weight = append(w.weight, make([]int64, len(slots)-len(w.weight))...) // slots only grow
			clear(w.weight)
			for x, l := range labels {
				w.weight[l] += d.NW[x]
			}
		} else if w.want >= 0 {
			w.weight[w.prevFrom] -= d.NW[w.prev]
			w.weight[w.want] += d.NW[w.prev]
		}
		for l, s := range slots {
			if s.weight != w.weight[l] {
				fail("label index %d weighs %d, its members %d", l, s.weight, w.weight[l])
				return
			}
		}
	}
	nt := d.NTotal()
	known := hashtab.NewMapI64(16)
	w.labels = append(w.labels, make([]int64, int(nt)-len(w.labels))...)
	w.labels[v] = int64(labels[v])
	for _, nb := range d.Neighbors(v) {
		w.labels[nb] = int64(labels[nb])
		known.Put(int64(labels[nb]), w.weight[labels[nb]])
		if labels[nb] >= nt {
			w.foreign++
		}
	}
	w.rngAfter = ln.rng
	w.prev, w.prevFrom = v, int64(labels[v])
	w.want = oracleProposeClusterNode(d, v, w.labels, known, w.constraint, w.u, w.conn, &w.rngAfter)
	w.slots = slots
	w.steps++
}

// TestClusterSlotsLeftClean watches every clustering sweep step of
// ParCluster on testutil.HubMesh (with a two-class constraint) and rmat 2^14
// at P=1 and P=3. After every selection and every phase boundary, before
// the next step, every rating in the slots must be 0 and every slot must
// weigh what the rank's local and ghost nodes carrying its label index
// weigh. Each step's choice is worked out by the hashed oracle
// from those recounted weights and checked at the next step. At P=3 the
// oracle must also have rated foreign labels, which moveGhost added during
// the run, so those are rated and weighed like the rest. -short keeps the
// hub mesh only.
func TestClusterSlotsLeftClean(t *testing.T) {
	rmat, err := gen.ByFamily(gen.FamilyRMAT, 1<<14, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { clusterStepHook = nil }()
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		u         int64
		constrain bool
		long      bool // a minute under -race: not in -short
	}{
		{"hub", testutil.HubMesh(3800, 128, 80, 2), 60, true, false},
		{"rmat-16384", rmat, 40, false, true},
	} {
		for _, P := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, P), func(t *testing.T) {
				if tc.long && testing.Short() {
					t.Skip("checks every step of a 2^14-node run; skipped in -short")
				}
				watch := make([]slotWatch, P)
				clusterStepHook = func(d *dgraph.DGraph, v int32, labels []int32, slots []clusterSlot, ln *lane) {
					watch[d.Comm.Rank()].step(d, v, labels, slots, ln)
				}
				n := int64(tc.g.NumNodes())
				mpi.NewWorld(P).Run(func(c *mpi.Comm) {
					d := dgraph.FromGraph(c, tc.g)
					w := &watch[c.Rank()]
					w.u, w.conn = tc.u, hashtab.NewAccumulatorI64(64)
					if tc.constrain {
						w.constraint = make([]int64, d.NTotal())
						for x := range w.constraint {
							w.constraint[x] = 2 * d.ToGlobal(int32(x)) / n
						}
					}
					ParCluster(d, ParClusterConfig{U: tc.u, Iterations: 3, DegreeOrder: true,
						Constraint: w.constraint, Seed: 5})
				})
				foreign := 0
				for rank, w := range watch {
					if w.firstErr != nil {
						t.Fatalf("rank %d: %v", rank, w.firstErr)
					}
					for l, s := range w.slots {
						if s.rating != 0 {
							t.Fatalf("rank %d: after the last step, label index %d still rated %d", rank, l, s.rating)
						}
					}
					if w.steps == 0 {
						t.Fatalf("rank %d: no sweep step seen", rank)
					}
					foreign += w.foreign
				}
				if P > 1 && foreign == 0 {
					t.Errorf("no step rated a foreign label")
				}
				t.Logf("%d neighbours with a foreign label rated", foreign)
			})
		}
	}
}
