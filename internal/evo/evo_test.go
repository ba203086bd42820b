package evo

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kaffpa"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/testutil"
)

func TestEvolveSingleRank(t *testing.T) {
	g, _ := gen.PlantedPartition(800, 8, 8, 0.6, 1)
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(4)
		cfg.Rounds = 2
		p := Evolve(context.Background(), c, g, cfg)
		if err := testutil.ValidatePartition(g, p, 4); err != nil {
			t.Error(err)
		}
		if !partition.IsFeasible(g, p, 4, 0.03) {
			t.Error("evolved partition infeasible")
		}
	})
}

// TestEvolveAllRanksAgree runs a fixed step count and a time budget with a
// migrant exchange every step. Under the budget the ranks reach it at
// different times; the stop vote must end them on the same step, or a rank
// blocks on a migrant from a rank that has stopped.
func TestEvolveAllRanksAgree(t *testing.T) {
	g, _ := gen.PlantedPartition(600, 6, 8, 0.6, 2)
	const P = 4
	rounds := DefaultConfig(2)
	rounds.Rounds = 2
	budget := DefaultConfig(2)
	budget.MigrateEvery = 1
	budget.TimeBudget = 30 * time.Millisecond
	for name, cfg := range map[string]Config{"rounds": rounds, "budget": budget} {
		results := make([][]int32, P)
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			results[c.Rank()] = Evolve(context.Background(), c, g, cfg)
		})
		for r := 1; r < P; r++ {
			if !slices.Equal(results[r], results[0]) {
				t.Fatalf("%s: ranks 0 and %d disagree", name, r)
			}
		}
	}
}

func TestEvolveBeatsSingleMultilevelRun(t *testing.T) {
	// With several independent individuals plus combines, the evolved cut
	// should be at least as good as a single multilevel run with the same
	// base seed.
	g, _ := gen.PlantedPartition(1200, 10, 8, 1.0, 3)
	k := int32(4)
	kc := kaffpa.DefaultConfig(k)
	kc.Seed = 1
	solo, err := kaffpa.Partition(g, kc)
	if err != nil {
		t.Fatal(err)
	}
	soloCut := partition.EdgeCut(g, solo)
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(k)
		cfg.Seed = 1
		cfg.Rounds = 3
		p := Evolve(context.Background(), c, g, cfg)
		cut := partition.EdgeCut(g, p)
		if cut > soloCut*11/10 {
			t.Errorf("evolved cut %d much worse than solo run %d", cut, soloCut)
		}
	})
}

func TestEvolveWithInitialNeverWorsens(t *testing.T) {
	g, _ := gen.PlantedPartition(900, 8, 8, 0.7, 4)
	k := int32(3)
	kc := kaffpa.DefaultConfig(k)
	kc.Seed = 9
	initial, err := kaffpa.Partition(g, kc)
	if err != nil {
		t.Fatal(err)
	}
	initCut := partition.EdgeCut(g, initial)
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(k)
		cfg.Rounds = 2
		cfg.Initial = initial
		p := Evolve(context.Background(), c, g, cfg)
		cut := partition.EdgeCut(g, p)
		if cut > initCut {
			t.Errorf("evolution worsened the injected individual: %d -> %d", initCut, cut)
		}
	})
}

func TestEvolveZeroRounds(t *testing.T) {
	// Rounds = 0 is the fast/minimal configuration: initial population
	// only; must still produce a valid global winner.
	g := gen.RGG(500, 5)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(2)
		cfg.Rounds = 0
		p := Evolve(context.Background(), c, g, cfg)
		if err := testutil.ValidatePartition(g, p, 2); err != nil {
			t.Error(err)
		}
	})
}

func TestEvolveSmallGraph(t *testing.T) {
	g := graph.Cycle(12)
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(2)
		cfg.Rounds = 1
		p := Evolve(context.Background(), c, g, cfg)
		if !partition.IsFeasible(g, p, 2, 0.03) {
			t.Errorf("cycle partition infeasible: %v", p)
		}
		// Optimal cut of an even cycle bipartition is 2.
		if cut := partition.EdgeCut(g, p); cut > 4 {
			t.Errorf("cycle cut %d", cut)
		}
	})
}

func TestEvolveAlternativeObjectives(t *testing.T) {
	g, _ := gen.PlantedPartition(800, 8, 8, 0.6, 5)
	k := int32(4)
	for _, obj := range []Objective{ObjectiveCommVol, ObjectiveMaxCommVol, ObjectiveMaxQuotientDegree} {
		mpi.NewWorld(2).Run(func(c *mpi.Comm) {
			cfg := DefaultConfig(k)
			cfg.Rounds = 1
			cfg.Objective = obj
			p := Evolve(context.Background(), c, g, cfg)
			if err := testutil.ValidatePartition(g, p, k); err != nil {
				t.Errorf("objective %d: %v", obj, err)
			}
			if !partition.IsFeasible(g, p, k, 0.03) {
				t.Errorf("objective %d: infeasible", obj)
			}
		})
	}
}

func TestObjectiveValues(t *testing.T) {
	g := graph.Path(6)
	p := []int32{0, 0, 1, 1, 2, 2}
	if v := ObjectiveCut.value(g, p, 3); v != 2 {
		t.Fatalf("cut objective %d", v)
	}
	if v := ObjectiveCommVol.value(g, p, 3); v != 4 {
		t.Fatalf("commvol objective %d", v)
	}
	if v := ObjectiveMaxQuotientDegree.value(g, p, 3); v != 2 {
		t.Fatalf("quotient degree objective %d", v)
	}
	if v := ObjectiveMaxCommVol.value(g, p, 3); v != 2 {
		t.Fatalf("max commvol objective %d", v)
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := []int32{0, 5, -1, 1 << 20}
	got := fromWire(toWire(p))
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("wire roundtrip %v -> %v", p, got)
		}
	}
}

// TestEvolveHonorsCancelledContext: with a done context and no world
// abort wired, Evolve degrades gracefully — it skips the search steps
// (here a one-minute time budget) and still returns a valid partition
// selected collectively from the minimal population.
func TestEvolveHonorsCancelledContext(t *testing.T) {
	g, _ := gen.PlantedPartition(600, 8, 8, 0.5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		cfg := DefaultConfig(2)
		cfg.TimeBudget = time.Minute // would otherwise search for a minute
		p := Evolve(ctx, c, g, cfg)
		if err := testutil.ValidatePartition(g, p, 2); err != nil {
			t.Error(err)
		}
	})
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancelled evolution still took %v", elapsed)
	}
}

// TestMigrationAwareSelection checks the repartitioning component: with a
// migration reference, objective ties go to the closer individual, and
// ObjectiveMigration makes divergence the primary fitness.
func TestMigrationAwareSelection(t *testing.T) {
	g := graph.Grid2D(4, 4)
	ref := make([]int32, 16)
	for i := range ref {
		if i%4 >= 2 {
			ref[i] = 1
		}
	}
	flipped := make([]int32, 16)
	for i := range ref {
		flipped[i] = 1 - ref[i]
	}
	cfg := Config{K: 2, Eps: 0.5, Objective: ObjectiveCut, MigrationRef: ref}
	a := evaluate(g, ref, cfg)     // zero divergence
	b := evaluate(g, flipped, cfg) // same cut, full divergence
	if a.primary != b.primary {
		t.Fatalf("test premise broken: cuts differ (%d vs %d)", a.primary, b.primary)
	}
	if !better(a, b) || better(b, a) {
		t.Error("migration tie-break did not prefer the reference-identical individual")
	}

	cfg.Objective = ObjectiveMigration
	am := evaluate(g, ref, cfg)
	bm := evaluate(g, flipped, cfg)
	if am.primary != 0 || bm.primary != 16 {
		t.Errorf("ObjectiveMigration primaries: %d and %d, want 0 and 16", am.primary, bm.primary)
	}
	if am.secondary != partition.EdgeCut(g, ref) {
		t.Errorf("ObjectiveMigration secondary = %d, want the cut", am.secondary)
	}
}
