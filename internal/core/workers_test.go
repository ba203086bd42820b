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
// chunk/seed grid leaked the worker count.
func TestWorkerBitIdentity(t *testing.T) {
	type family struct {
		name  string
		g     *graph.Graph
		class GraphClass
	}
	families := []family{
		{"mesh", gen.DelaunayLike(3600, 2), ClassMesh},
		{"social", mustPlanted(4000, 30, 10, 0.5, 7), ClassSocial},
	}
	pes := []int{1, 4, 8}
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		pes = []int{1, 4}
		workerCounts = []int{4}
	}
	for _, fam := range families {
		for _, P := range pes {
			t.Run(fmt.Sprintf("%s/P=%d", fam.name, P), func(t *testing.T) {
				cfg := FastConfig(8, fam.class)
				cfg.Seed = 12345
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
