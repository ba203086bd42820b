package sclp

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestChunkShuffleOrder: the sweeps' visit order is a permutation of the
// ascending list in which every run of visitChunk consecutive entries fills
// one stretch of output positions. The runs and the entries inside each run
// come out in an order drawn from the stream, and the same seed gives the
// same order.
func TestChunkShuffleOrder(t *testing.T) {
	// Ascending with gaps, like a drained active set; the last run is short.
	var list []int32
	for v := int32(0); len(list) < 5*visitChunk+300; v++ {
		if v%3 != 0 {
			list = append(list, v)
		}
	}
	index := make(map[int32]int, len(list))
	for i, v := range list {
		index[v] = i
	}
	shuffle := func(seed uint64) []int32 {
		out, runs := make([]int32, len(list)), make([]int32, numRuns(len(list)))
		return chunkShuffle(out, runs, list, rng.New(seed))
	}
	runOrders := map[string]bool{}
	for seed := uint64(1); seed <= 6; seed++ {
		got := shuffle(seed)
		if !slices.Equal(got, shuffle(seed)) {
			t.Fatalf("seed %d: two calls gave different orders", seed)
		}
		var runOrder []byte
		for pos := 0; pos < len(got); {
			i, ok := index[got[pos]]
			if !ok {
				t.Fatalf("seed %d: output %d is %d, not in the list", seed, pos, got[pos])
			}
			c := i / visitChunk
			want := list[c*visitChunk : min((c+1)*visitChunk, len(list))]
			if pos+len(want) > len(got) {
				t.Fatalf("seed %d: run %d starts at %d and overruns the output", seed, c, pos)
			}
			seg := slices.Clone(got[pos : pos+len(want)])
			if slices.Equal(seg, want) {
				t.Errorf("seed %d: run %d is not shuffled", seed, c)
			}
			slices.Sort(seg)
			if !slices.Equal(seg, want) {
				t.Fatalf("seed %d: output [%d, %d) does not hold exactly input run %d", seed, pos, pos+len(want), c)
			}
			runOrder = append(runOrder, byte(c))
			pos += len(want)
		}
		runs := slices.Clone(runOrder)
		slices.Sort(runs)
		if !slices.Equal(runs, []byte{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("seed %d: runs laid out %v, want each of 0..5 once", seed, runOrder)
		}
		runOrders[string(runOrder)] = true
	}
	if len(runOrders) < 2 {
		t.Errorf("six seeds laid the runs out in %d order(s)", len(runOrders))
	}
}
