package dgraph

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/mpi"
	"repro/internal/rng"
)

// sharedHome returns k IDs at or above from whose home slot in a table of
// the given size is the same as from's.
func sharedHome(from int64, size, k int) []int64 {
	x := ghostIndex{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	want := x.home(from)
	ids := []int64{from}
	for g := from + 1; len(ids) < k; g++ {
		if x.home(g) == want {
			ids = append(ids, g)
		}
	}
	return ids
}

// TestGhostIndexMatchesMapOracle interns ghosts into a level whose only
// local range is [0, 4) and whose other rank owns every ID up to
// math.MaxInt64, and checks each translation against a map oracle: IDs
// that share a home slot (at the first table size and at the last), IDs
// above 2^31 and next to math.MaxInt64, and enough of them to double the
// table ten times.
func TestGhostIndexMatchesMapOracle(t *testing.T) {
	const nLocal = 4
	const nRandom = 5000
	// The last table holds nRandom+ ghosts at load ≤ 1/2.
	lastSize := 1 << bits.Len(uint(2*(nRandom+64)))
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		d := &DGraph{Comm: c, VtxDist: []int64{0, nLocal, math.MaxInt64}, nLocal: nLocal}
		oracle := map[int64]int32{}
		intern := func(g int64) {
			t.Helper()
			want, seen := oracle[g]
			if !seen {
				want = nLocal + int32(len(oracle))
				oracle[g] = want
			}
			if lu := d.internGhost(g); lu != want {
				t.Fatalf("internGhost(%d) = %d, want %d (seen before: %v)", g, lu, want, seen)
			}
		}

		var ids []int64
		ids = append(ids, sharedHome(nLocal, minGhostSlots, 7)...)
		ids = append(ids, sharedHome(1<<31, minGhostSlots, 7)...)
		ids = append(ids, sharedHome(1<<40, lastSize, 24)...)
		for i := int64(1); i <= 16; i++ {
			ids = append(ids, math.MaxInt64-i, 1<<31-1+i, 1<<32+i)
		}
		r := rng.New(7)
		for range nRandom {
			ids = append(ids, nLocal+r.Int64n(math.MaxInt64-nLocal))
		}
		for _, g := range ids {
			intern(g)
		}
		// Interning again changes nothing.
		for _, g := range ids[:200] {
			intern(g)
		}
		if got := len(d.g2l.slots); got != lastSize || 2*len(d.ghostGlobal) > got {
			t.Errorf("%d ghosts in %d slots, want %d slots at load ≤ 1/2", len(d.ghostGlobal), got, lastSize)
		}
		if int(d.NGhost()) != len(oracle) {
			t.Fatalf("%d ghosts, oracle has %d", d.NGhost(), len(oracle))
		}

		for g, want := range oracle {
			if lu, ok := d.ToLocal(g); !ok || lu != want {
				t.Errorf("ToLocal(%d) = %d, %v; want %d, true", g, lu, ok, want)
			}
		}
		for lu := int32(nLocal); lu < d.NTotal(); lu++ {
			g := d.ToGlobal(lu)
			if back, ok := d.ToLocal(g); !ok || back != lu {
				t.Errorf("ToLocal(ToGlobal(%d) = %d) = %d, %v", lu, g, back, ok)
			}
			if d.GhostOwner(lu) != 1 {
				t.Errorf("ghost %d (global %d) owned by %d, want 1", lu, g, d.GhostOwner(lu))
			}
		}
		for v := int32(0); v < nLocal; v++ {
			if lu, ok := d.ToLocal(int64(v)); !ok || lu != v {
				t.Errorf("local ToLocal(%d) = %d, %v", v, lu, ok)
			}
		}

		// Absent IDs: ones whose probe runs through the colliding chains,
		// the extremes, and random ones.
		absent := append(sharedHome(1<<40, lastSize, 40)[24:], math.MaxInt64-17, math.MaxInt64, -1, math.MinInt64)
		for range 2000 {
			absent = append(absent, nLocal+r.Int64n(math.MaxInt64-nLocal))
		}
		for _, g := range absent {
			if _, in := oracle[g]; in {
				continue
			}
			if lu, ok := d.ToLocal(g); ok {
				t.Errorf("absent ID %d translated to %d", g, lu)
			}
		}
	})
}

// TestGhostIndexEmpty checks a level without ghosts: nothing is allocated
// for the index, and every foreign ID is absent.
func TestGhostIndexEmpty(t *testing.T) {
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		d := &DGraph{Comm: c, VtxDist: []int64{0, 4, 8}, nLocal: 4}
		for _, g := range []int64{4, 7, 100, -1} {
			if lu, ok := d.ToLocal(g); ok {
				t.Errorf("ToLocal(%d) = %d on a level without ghosts", g, lu)
			}
		}
		if d.g2l.slots != nil {
			t.Errorf("index allocated %d slots for no ghosts", len(d.g2l.slots))
		}
	})
}
