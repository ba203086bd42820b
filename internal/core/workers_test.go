package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestWorkerBitIdentity is the contract of the intra-rank worksharing
// design (propose in parallel over a worker-count-independent chunk grid,
// commit sequentially in traversal order): the partition is bit-identical
// for every worker count. It compares Workers=1 against Workers∈{2,4,8},
// element by element, on a mesh and a social graph across PE counts —
// any divergence means a kernel read state it should not have, or the
// chunk/seed grid leaked the worker count. The hub family puts more distinct
// labels around a node than a lane accumulator's initial capacity, so the
// tables grow mid-node: whatever then depends on a lane's capacity history
// (as hashtab's ForEach order once did) depends on the schedule. The exact
// work counters of sclp.ParStats are held to the same standard.
func TestWorkerBitIdentity(t *testing.T) {
	type family struct {
		name  string
		g     *graph.Graph
		class GraphClass
		pes   []int
		// phases overrides PhasesPerRound: the hub graph is small, and at the
		// default 8 phases a rank's phase is a single chunk, which runs
		// inline on lane 0 whatever the worker count. One centre is not
		// enough either: the order only differs on a lane that meets its
		// first centre with a fresh table, so there must be enough centres
		// for several lanes of a rank to meet one.
		phases int
	}
	pes := []int{1, 4, 8}
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		pes = []int{1, 4}
		workerCounts = []int{4}
	}
	families := []family{
		{"mesh", gen.DelaunayLike(3600, 2), ClassMesh, pes, 0},
		{"social", mustPlanted(4000, 30, 10, 0.5, 7), ClassSocial, pes, 0},
		{"hub", gen.HubMesh(3800, 128, 80, 2), ClassSocial, []int{2, 4}, 1},
	}
	for _, fam := range families {
		for _, P := range fam.pes {
			t.Run(fmt.Sprintf("%s/P=%d", fam.name, P), func(t *testing.T) {
				cfg := FastConfig(8, fam.class)
				cfg.Seed = 12345
				cfg.PhasesPerRound = fam.phases
				cfg.Workers = 1
				base, err := run(P, fam.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					cfg.Workers = w
					res, err := run(P, fam.g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Part) != len(base.Part) {
						t.Fatalf("workers=%d: partition length %d != %d", w, len(res.Part), len(base.Part))
					}
					for v := range base.Part {
						if res.Part[v] != base.Part[v] {
							t.Fatalf("workers=%d: node %d assigned block %d, workers=1 assigned %d (first divergence; cut %d vs %d)",
								w, v, res.Part[v], base.Part[v], res.Stats.Cut, base.Stats.Cut)
						}
					}
					if res.Stats.Cut != base.Stats.Cut {
						t.Fatalf("workers=%d: identical partition but cut %d != %d", w, res.Stats.Cut, base.Stats.Cut)
					}
					// The work counters are summed over lanes, so they are as exact
					// as the partition: same evaluations, same early-outs.
					if got, want := res.Stats.Par, base.Stats.Par; got.Evaluated != want.Evaluated || got.Interior != want.Interior {
						t.Fatalf("workers=%d: %d nodes evaluated / %d interior, workers=1 counted %d / %d",
							w, got.Evaluated, got.Interior, want.Evaluated, want.Interior)
					}
					if p := res.Stats.Par; p.Interior <= 0 || p.Interior >= p.Evaluated {
						t.Fatalf("workers=%d: %d of %d evaluations interior: want some, not all", w, p.Interior, p.Evaluated)
					}
				}
			})
		}
	}
}

func mustPlanted(n, comm int32, degIn, degOut float64, seed uint64) *graph.Graph {
	g, _ := gen.PlantedPartition(n, comm, degIn, degOut, seed)
	return g
}
