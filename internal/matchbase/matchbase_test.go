package matchbase

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/testutil"
)

func run(P int, g *graph.Graph, cfg Config) (core.Result, error) {
	return RunCtx(context.Background(), P, g, cfg)
}

func TestRunMeshFeasible(t *testing.T) {
	g := gen.DelaunayLike(2500, 1)
	res, err := run(4, g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Evaluate(g, res.Part, 2, 0.03)
	if !rep.Feasible {
		t.Fatalf("infeasible: %v", rep)
	}
	if rep.Cut*4 > g.TotalEdgeWeight() {
		t.Fatalf("cut %d too large", rep.Cut)
	}
}

func TestMatchingCoarseningEffectiveOnMesh(t *testing.T) {
	// On a mesh, matching halves the graph per level: coarsening reaches
	// the limit without stalling.
	g := gen.DelaunayLike(4000, 2)
	res, err := run(2, g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Coarsening runs until the level is at most the limit unless the
	// stall detector ends it first, so a coarsest level above the limit
	// means the matching stalled.
	lv := res.Stats.Levels
	if coarsest := lv[len(lv)-1].N; coarsest > max(CoarsestPerBlock*2, minCoarsest) {
		t.Fatalf("matching stalled on a mesh at %d nodes: levels %v", coarsest, lv)
	}
}

func TestMatchingStallsOnStarOfCliques(t *testing.T) {
	// A hub-heavy graph: matching can shrink cliques but the paper's
	// observation is the contrast in shrink factor per level vs cluster
	// contraction. Verify matching needs many more levels than cluster
	// contraction to reach the same size.
	g := testutil.StarOfCliques(200, 20, 3) // 4001 nodes
	res, err := run(2, g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Matching halves at best: expect at least log2(4001/600) ~ 3 levels.
	if len(res.Stats.Levels) < 3 {
		t.Fatalf("levels: %v", res.Stats.Levels)
	}
	for i := 1; i < len(res.Stats.Levels); i++ {
		shrink := float64(res.Stats.Levels[i].N) / float64(res.Stats.Levels[i-1].N)
		if shrink < 0.45 {
			t.Fatalf("matching shrank by more than 2x in one level: %v", res.Stats.Levels)
		}
	}
}

func TestMemoryBudgetAbort(t *testing.T) {
	// A star graph is nearly unmatchable (one matched edge per hub):
	// coarsening stalls and the replicated coarsest graph exceeds a small
	// budget, reproducing the paper's "*" failures.
	g := testutil.Star(5000)
	cfg := DefaultConfig(2)
	cfg.MemoryBudgetNodes = 1000
	_, err := run(2, g, cfg)
	if err == nil {
		t.Fatal("expected memory-budget failure on a star graph")
	}
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestMemoryBudgetGenerousPasses(t *testing.T) {
	g := gen.DelaunayLike(1600, 4)
	cfg := DefaultConfig(2)
	cfg.MemoryBudgetNodes = 1 << 30
	if _, err := run(2, g, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineWorseThanClusterContractionOnCommunities(t *testing.T) {
	// The paper's headline: on complex networks the cluster-contraction
	// system wins on quality. Compare coarsening effectiveness here (the
	// cut comparison lives in the experiment harness).
	g, _ := gen.PlantedPartition(4000, 40, 12, 0.3, 5)
	res, err := run(2, g, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Levels) >= 2 {
		firstShrink := float64(res.Stats.Levels[1].N) / float64(res.Stats.Levels[0].N)
		if firstShrink < 0.4 {
			t.Fatalf("matching shrank a complex network by %.2f in one level — too effective", firstShrink)
		}
	}
}

func TestRunInvalidK(t *testing.T) {
	g := graph.Path(10)
	if _, err := run(1, g, Config{K: 0}); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunSingleRank(t *testing.T) {
	g := gen.RGG(800, 6)
	res, err := run(1, g, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := testutil.ValidatePartition(g, res.Part, 4); err != nil {
		t.Fatal(err)
	}
	if !partition.IsFeasible(g, res.Part, 4, 0.03) {
		t.Errorf("infeasible (imbalance %.4f)", partition.Imbalance(g, res.Part, 4))
	}
}

// TestCancelMidRun: a context cancelled while the baseline runs (on rank 0,
// after distribution) stops every rank through the world's abort, and
// RunWith returns the cancellation promptly without leaking goroutines.
func TestCancelMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	g := gen.DelaunayLike(20000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := DefaultConfig(2)
	start := time.Now()
	_, err := core.RunWith(ctx, mpi.NewWorld(2), g, nil, func(_ context.Context, d *dgraph.DGraph) ([]int64, core.Stats, error) {
		if d.Comm.Rank() == 0 {
			cancel()
		}
		return PartitionDistributed(d, cfg)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWith returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	testutil.WaitNoLeak(t, base, 2)
}
