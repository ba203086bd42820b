package parhip

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/kaffpa"
	"repro/internal/partition"
)

// End-to-end integration tests across module boundaries.

// The parallel system and the sequential multilevel partitioner must land
// in the same quality regime on the same input. A single kaffpa cut on this
// graph spreads over more than 3x from seed to seed (759 to 2,652 over seeds
// 1–20), so the regimes are compared by their mean cuts over 20 seeds.
func TestIntegrationParallelVsSequentialQuality(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 20, 10, 0.6, 13)
	k := int32(4)
	const seeds = 20
	var sc, pc int64
	for seed := uint64(1); seed <= seeds; seed++ {
		seqCfg := kaffpa.DefaultConfig(k)
		seqCfg.Seed = seed
		seq, err := kaffpa.Partition(g, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := runSession(g, WithK(k), WithPEs(4), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		sc += partition.EdgeCut(g, seq)
		pc += par.Cut
	}
	if pc > 2*sc || sc > 2*pc {
		t.Fatalf("mean cuts over %d seeds: parallel %.1f and sequential %.1f differ by more than 2x",
			seeds, float64(pc)/seeds, float64(sc)/seeds)
	}
	t.Logf("mean cuts over %d seeds: parallel %.1f, sequential %.1f", seeds, float64(pc)/seeds, float64(sc)/seeds)
}

// Round trip a generated graph through METIS text and binary formats, then
// partition the reloaded copy: the pipeline a downstream user runs.
func TestIntegrationIORoundTripThenPartition(t *testing.T) {
	g := gen.DelaunayLike(1600, 4)
	var metis, bin bytes.Buffer
	if err := WriteMetis(&metis, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMetis(&metis)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSession(g2, WithK(4), WithPEs(2), WithClass(Mesh), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible after METIS round trip")
	}
	// Binary round trip preserves the graph exactly, so the same seed gives
	// the same partition.
	if err := WriteBinary(&bin, g2); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runSession(g3, WithK(4), WithPEs(2), WithClass(Mesh), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cut != res.Cut {
		t.Fatalf("binary round trip changed the run: cut %d vs %d", res2.Cut, res.Cut)
	}
}

// Improving an outside placement through the public API: a raw assignment
// wrapped by NewPartition seeds a run that never worsens it.
func TestIntegrationPrepartitionPublicAPI(t *testing.T) {
	g, _ := gen.PlantedPartition(1500, 12, 9, 0.5, 6)
	k := int32(4)
	pre := make([]int32, g.NumNodes())
	for v := int32(0); v < g.NumNodes(); v++ {
		pre[v] = v % k
	}
	preCut := EdgeCut(g, pre)
	prev, err := NewPartition(g, pre, k, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repartition(context.Background(), g, prev, WithPEs(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut > preCut {
		t.Fatalf("prepartition worsened: %d -> %d", preCut, res.Cut)
	}
}

// The headline comparison end to end through the public API: ParHIP beats
// the baseline on a community graph.
func TestIntegrationHeadlineComparison(t *testing.T) {
	g := gen.WebCrawlLike(8000, 60, 10, 0.4, 80, 9)
	k := int32(8)
	opts := []Option{WithK(k), WithPEs(2), WithSeed(1)}
	ours, err := runSession(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := RunBaseline(ctx, g, 0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ours.Cut >= base.Cut {
		t.Fatalf("ParHIP cut %d not better than baseline %d on a web graph", ours.Cut, base.Cut)
	}
	// And the baseline fails under the calibrated memory budget.
	if _, err := RunBaseline(ctx, g, int64(g.NumNodes())/6, opts...); err == nil {
		t.Fatal("baseline should exceed the memory budget on a web-crawl graph")
	}
}
