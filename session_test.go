package parhip

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/testutil"
)

// TestSessionRun: the happy path, and a session runs again to the same
// partition.
func TestSessionRun(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 20, 10, 0.5, 1)
	p, err := New(g, WithK(4), WithPEs(2), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	part := res.Partition.assign
	if len(part) != int(g.NumNodes()) || !res.Feasible {
		t.Fatalf("bad result: len=%d feasible=%v", len(part), res.Feasible)
	}
	if res.Cut != EdgeCut(g, part) {
		t.Fatalf("cut %d != recomputed %d", res.Cut, EdgeCut(g, part))
	}
	again, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if again.Partition.Checksum() != res.Partition.Checksum() {
		t.Fatalf("second Run gave partition %s, first gave %s",
			again.Partition.Checksum(), res.Partition.Checksum())
	}
}

// TestSessionConcurrentRuns: two goroutines running one Partitioner get
// independent runs of the same settings, hence the same partition.
func TestSessionConcurrentRuns(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 20, 10, 0.5, 2)
	p, err := New(g, WithK(4), WithPEs(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	var sums [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(context.Background())
			if errs[i] = err; err == nil {
				sums[i] = res.Partition.Checksum()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if sums[0] != sums[1] {
		t.Fatalf("concurrent runs gave partitions %s and %s", sums[0], sums[1])
	}
}

// TestSessionProgress: a WithProgressFunc callback receives ordered phase
// events ending in a "done" checkpoint consistent with the result. The
// last WithProgressFunc wins, like every other option.
func TestSessionProgress(t *testing.T) {
	g, _ := gen.PlantedPartition(4000, 20, 10, 0.5, 3)
	var evs []ProgressEvent
	p, err := New(g, WithK(4), WithPEs(2),
		WithProgressFunc(func(ProgressEvent) { t.Error("replaced callback called") }),
		WithProgressFunc(func(ev ProgressEvent) { evs = append(evs, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no progress events")
	}
	seen := map[string]int{}
	for _, ev := range evs {
		seen[string(ev.Phase)]++
	}
	for _, phase := range []string{"coarsen", "init", "refine", "done"} {
		if seen[phase] == 0 {
			t.Errorf("no %q event (saw %v)", phase, seen)
		}
	}
	last := evs[len(evs)-1]
	if last.Phase != "done" || last.Cut != res.Cut {
		t.Fatalf("final event %+v does not match result cut %d", last, res.Cut)
	}
	for _, ev := range evs {
		if ev.Phase == "refine" && (ev.Cut < 0 || ev.Imbalance < -1e-9) {
			t.Fatalf("refine event missing quality: %+v", ev)
		}
		if ev.Cycles == 0 || ev.Elapsed < 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
}

// TestSessionCancelMidCoarsening: cancelling on the first coarsening
// checkpoint makes Run return ctx.Err() promptly and leak no goroutines.
func TestSessionCancelMidCoarsening(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := gen.PlantedPartition(20000, 30, 16, 0.5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	p, err := New(g, WithK(8), WithPEs(4), WithMode(Eco),
		WithProgressFunc(func(ev ProgressEvent) {
			if ev.Phase == "coarsen" && cancelledAt.IsZero() {
				cancelledAt = time.Now()
				cancel()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(ctx)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if cancelledAt.IsZero() {
		t.Fatal("run finished before the first coarsen event")
	}
	// Promptness: well under the ~seconds the full eco run takes — the
	// ranks must stop at the next superstep, not finish the pipeline.
	if lat := returned.Sub(cancelledAt); lat > 3*time.Second {
		t.Fatalf("cancel-to-return latency %v", lat)
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestSessionCancelMidEvolution: a run parked in the evolutionary search
// (long time budget on a small graph) honors cancellation.
func TestSessionCancelMidEvolution(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := gen.PlantedPartition(800, 10, 8, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := New(g, WithK(2), WithPEs(2), WithMode(Eco),
		WithEvoTimeBudget(60*time.Second)) // would park evo for 30s/rank
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	_, err = p.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v against a 60s evo budget", elapsed)
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestSessionDeadline: a context deadline surfaces as DeadlineExceeded
// within bounded time.
func TestSessionDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := gen.PlantedPartition(20000, 30, 16, 0.5, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p, err := New(g, WithK(8), WithPEs(4), WithMode(Eco))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = p.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestSessionPreCancelled: a context cancelled before Run starts returns
// immediately without partitioning.
func TestSessionPreCancelled(t *testing.T) {
	g, _ := gen.PlantedPartition(1000, 8, 8, 0.5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := New(g, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestNewValidation: every invalid setting is rejected with a descriptive
// error at the API boundary.
func TestNewValidation(t *testing.T) {
	g, _ := gen.PlantedPartition(100, 6, 6, 0.5, 1)
	cases := []struct {
		name string
		g    *Graph
		opts []Option
		want string
	}{
		{"nil graph", nil, []Option{WithK(2)}, "nil graph"},
		{"k missing", g, nil, "k = 0"},
		{"k negative", g, []Option{WithK(-3)}, "k = -3"},
		{"k exceeds n", g, []Option{WithK(101)}, "exceeds"},
		{"eps negative", g, []Option{WithK(2), WithEps(-0.1)}, "eps"},
		{"eps absurd", g, []Option{WithK(2), WithEps(1e6)}, "eps"},
		{"pes negative", g, []Option{WithK(2), WithPEs(-1)}, "PEs"},
		{"bad mode", g, []Option{WithK(2), WithMode(Mode(42))}, "mode"},
		{"bad class", g, []Option{WithK(2), WithClass(GraphClass(9))}, "class"},
		{"bad objective", g, []Option{WithK(2), WithObjective(Objective(77))}, "objective"},
		{"negative budget", g, []Option{WithK(2), WithEvoTimeBudget(-time.Second)}, "budget"},
		// An explicit zero is out of range like any other bad value; it is
		// never read as "use the default".
		{"explicit eps 0", g, []Option{WithK(2), WithEps(0)}, "eps = 0"},
		{"explicit seed 0", g, []Option{WithK(2), WithSeed(0)}, "seed = 0"},
		{"explicit pes 0", g, []Option{WithK(2), WithPEs(0)}, "PEs = 0"},
	}
	for _, tc := range cases {
		_, err := New(tc.g, tc.opts...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A fully valid configuration still passes.
	if _, err := New(g, WithK(2), WithEps(0.1), WithPEs(2), WithMode(Eco),
		WithClass(Mesh), WithObjective(MinimizeCommVolume)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	// RunBaseline validates exactly like New.
	for _, tc := range cases {
		if _, err := RunBaseline(context.Background(), tc.g, 0, tc.opts...); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunBaseline %s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}
	// A negative memory budget is out of range too, not "unlimited".
	if _, err := RunBaseline(context.Background(), g, -5, WithK(2)); err == nil ||
		!strings.Contains(err.Error(), "memoryBudgetNodes") {
		t.Errorf("RunBaseline with memoryBudgetNodes -5: error %v does not name it", err)
	}
}

// TestBaselineCtxCancel: the matching-based baseline honors contexts too.
func TestBaselineCtxCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	g := gen.DelaunayLike(20000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBaseline(ctx, g, 0, WithK(2), WithPEs(2), WithClass(Mesh)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
	testutil.WaitNoLeak(t, base, 2)
}
