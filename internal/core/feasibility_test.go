package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// TestRunFeasibilityFuzz asserts the PR's central postcondition: core.Run
// returns Feasible=true over randomized {graph family, k, eps, P}
// combinations — the explicit rebalance stage must catch whatever
// refinement leaves overloaded. Unit node weights guarantee a feasible
// assignment always exists (Lmax >= ceil(c(V)/k) >= 1), so any
// Feasible=false here is a bug, not bad luck.
func TestRunFeasibilityFuzz(t *testing.T) {
	families := []struct {
		name string
		gen  func(n int32, seed uint64) *graph.Graph
	}{
		{"ba", func(n int32, seed uint64) *graph.Graph { return gen.BarabasiAlbert(n, 4, seed) }},
		{"rgg", func(n int32, seed uint64) *graph.Graph { return gen.RGG(n, seed) }},
		{"del", func(n int32, seed uint64) *graph.Graph { return gen.DelaunayLike(n, seed) }},
		{"planted", func(n int32, seed uint64) *graph.Graph {
			g, _ := gen.PlantedPartition(n, 12, 6, 0.4, seed)
			return g
		}},
		{"path", func(n int32, seed uint64) *graph.Graph { return gen.BarabasiAlbert(n, 1, seed) }},
	}
	ks := []int32{2, 3, 5, 8}
	epss := []float64{0.03, 0.07, 0.29, 0.5}
	pes := []int{1, 2, 4, 7}

	configs := 100
	if testing.Short() {
		configs = 24
	}
	r := rng.New(2026)
	for i := 0; i < configs; i++ {
		fam := families[r.Intn(len(families))]
		k := ks[r.Intn(len(ks))]
		eps := epss[r.Intn(len(epss))]
		P := pes[r.Intn(len(pes))]
		n := int32(120 + r.Intn(380))
		seed := r.Uint64()

		g := fam.gen(n, seed)
		cfg := MinimalConfig(k, ClassSocial)
		if i%3 == 0 {
			cfg = FastConfig(k, ClassSocial)
		}
		cfg.Eps = eps
		cfg.Seed = seed + 1
		name := fmt.Sprintf("cfg %d: %s n=%d k=%d eps=%g P=%d seed=%d",
			i, fam.name, g.NumNodes(), k, eps, P, seed)

		res, err := run(P, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Feasible {
			t.Fatalf("%s: Feasible=false (lmax=%d maxBlock=%d overload=%d)",
				name, res.Stats.Lmax, res.Stats.MaxBlockWeight, res.Stats.WorstOverload())
		}
		// The stats flag must agree with an independent check of the actual
		// partition vector.
		if !partition.IsFeasible(g, res.Part, k, eps) {
			t.Fatalf("%s: stats say feasible but the partition vector is not", name)
		}
		if err := testutil.ValidatePartition(g, res.Part, k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestStatsBalanceFields: Lmax/MaxBlockWeight are filled consistently with
// the returned partition.
func TestStatsBalanceFields(t *testing.T) {
	g := gen.RGG(900, 3)
	const k, eps = 4, 0.03
	res, err := run(4, g, FastConfig(k, ClassMesh))
	if err != nil {
		t.Fatal(err)
	}
	wantLmax := partition.Lmax(g.TotalNodeWeight(), k, eps)
	if res.Stats.Lmax != wantLmax {
		t.Errorf("Stats.Lmax = %d, want %d", res.Stats.Lmax, wantLmax)
	}
	var mx int64
	for _, w := range partition.BlockWeights(g, res.Part, k) {
		if w > mx {
			mx = w
		}
	}
	if res.Stats.MaxBlockWeight != mx {
		t.Errorf("Stats.MaxBlockWeight = %d, want %d", res.Stats.MaxBlockWeight, mx)
	}
	if got, want := res.Stats.WorstOverload(), int64(0); res.Stats.Feasible && got != want {
		t.Errorf("feasible but WorstOverload = %d", got)
	}
}
