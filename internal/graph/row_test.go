package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// canonicalOracle is CanonicalizeRow by a stable comparison sort and a
// separate merge pass.
func canonicalOracle[ID int32 | int64](ids []ID, ws []int64) ([]ID, []int64) {
	type arc struct {
		id ID
		w  int64
	}
	row := make([]arc, len(ids))
	for i := range ids {
		row[i] = arc{ids[i], ws[i]}
	}
	slices.SortStableFunc(row, func(a, b arc) int { return cmp.Compare(a.id, b.id) })
	outI, outW := []ID{}, []int64{}
	for _, a := range row {
		if n := len(outI); n > 0 && outI[n-1] == a.id {
			outW[n-1] += a.w
		} else {
			outI, outW = append(outI, a.id), append(outW, a.w)
		}
	}
	return outI, outW
}

// checkCanonicalizeRow compares CanonicalizeRow with the oracle on random
// rows of every shape, lengths 0–5000 (both sides of the insertion-sort
// cutoff), with IDs below maxID. One scratch is shared by every row, so
// stale buffer contents and a buffer shorter than the row are covered.
func checkCanonicalizeRow[ID int32 | int64](t *testing.T, maxID int64) {
	r := rng.New(uint64(maxID))
	var s RowScratch[ID]
	lengths := []int{0, 1, 2, 3, 17, rowSortCutoff, rowSortCutoff + 1, 100, 255, 256, 257, 1000, 5000}
	for i := 0; i < 8; i++ {
		lengths = append(lengths, r.Intn(5001))
	}
	shapes := []string{"dense", "sparse", "high", "duplicates", "sorted", "reverse"}
	for _, n := range lengths {
		for _, shape := range shapes {
			ids, ws := make([]ID, n), make([]int64, n)
			for i := range ids {
				switch shape {
				case "dense":
					ids[i] = ID(r.Int64n(int64(n)/2 + 1))
				case "sparse", "sorted", "reverse":
					ids[i] = ID(r.Int64n(maxID))
				case "high": // a narrow range just below maxID; below 0 when n > maxID
					ids[i] = ID(maxID - 1 - r.Int64n(int64(n)+1))
				case "duplicates":
					ids[i] = ID(r.Int64n(4))
				}
				ws[i] = 1 + r.Int64n(1<<40)
			}
			switch shape {
			case "sorted":
				slices.Sort(ids)
			case "reverse":
				slices.Sort(ids)
				slices.Reverse(ids)
			}
			wantI, wantW := canonicalOracle(ids, ws)
			got := CanonicalizeRow(ids, ws, &s)
			name := fmt.Sprintf("%T/%s/n=%d/max=%d", ids[:0], shape, n, maxID)
			if got != len(wantI) {
				t.Fatalf("%s: length %d, want %d", name, got, len(wantI))
			}
			if !slices.Equal(ids[:got], wantI) || !slices.Equal(ws[:got], wantW) {
				t.Fatalf("%s: row differs from the oracle", name)
			}
		}
	}
}

func TestCanonicalizeRow(t *testing.T) {
	checkCanonicalizeRow[int32](t, math.MaxInt32)
	checkCanonicalizeRow[int32](t, 1<<12)
	for _, maxID := range []int64{1 << 12, math.MaxInt32, 1 << 40, 1 << 62} {
		checkCanonicalizeRow[int64](t, maxID)
	}
}
