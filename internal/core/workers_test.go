package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
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
// (as hashtab's ForEach order once did) depends on the schedule.
func TestWorkerBitIdentity(t *testing.T) {
	type family struct {
		name  string
		g     *graph.Graph
		class GraphClass
		pes   []int
		// phases overrides PhasesPerRound: the hub graph is small, and at the
		// default 8 phases a rank's phase is a single chunk, which runs
		// inline on lane 0 whatever the worker count.
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
		{"hub", hubGraph(3800, 128, 80, 2), ClassSocial, []int{2, 4}, 1},
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
				}
			})
		}
	}
}

func mustPlanted(n, comm int32, degIn, degOut float64, seed uint64) *graph.Graph {
	g, _ := gen.PlantedPartition(n, comm, degIn, degOut, seed)
	return g
}

// hubGraph returns a mesh with hubs extra centre nodes, each adjacent to
// reach random mesh nodes. A centre sees more distinct clusters than a lane
// accumulator's initial capacity (64), at connection strengths that keep
// changing while the mesh clusters merge — so the number of tie-break draws
// it takes from its chunk's stream depends on the order it meets the labels
// in, and the tie-prone mesh nodes behind it in the chunk inherit the shift.
// One centre is not enough: the order only differs on a lane that meets its
// first centre with a fresh table, so there must be enough centres for
// several lanes of a rank to meet one. Centres are spread over the ID range
// so every rank owns its share.
func hubGraph(meshNodes, hubs, reach int32, seed uint64) *graph.Graph {
	mesh := gen.DelaunayLike(meshNodes, seed)
	n := mesh.NumNodes() + hubs
	var centres, meshID []graph.NodeID
	for v := int32(0); v < n; v++ {
		if v%(n/hubs) == 0 && int32(len(centres)) < hubs {
			centres = append(centres, v)
		} else {
			meshID = append(meshID, v)
		}
	}
	b := graph.NewBuilder(n)
	for v := int32(0); v < mesh.NumNodes(); v++ {
		for _, u := range mesh.Neighbors(v) {
			if v < u {
				b.AddEdge(meshID[v], meshID[u])
			}
		}
	}
	r := rng.New(seed)
	for _, h := range centres {
		for i := int32(0); i < reach; i++ {
			b.AddEdge(h, meshID[r.Int31n(mesh.NumNodes())])
		}
	}
	return b.Build()
}
