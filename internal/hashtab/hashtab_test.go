package hashtab

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/rng"
)

// AccumulatorPairI64's production surface is what the benchmark's
// pair_add_mops substrate calls (New and Add); the tests read it back
// through these.

// Get returns the accumulated value for (a, b) and whether the pair is
// present.
func (t *AccumulatorPairI64) Get(a, b int64) (int64, bool) {
	i := hashPair64(a, b) & t.mask
	for t.used[i] {
		if t.keysA[i] == a && t.keysB[i] == b {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Len returns the number of distinct pairs in the table.
func (t *AccumulatorPairI64) Len() int { return t.size }

// ForEach calls fn for every (a, b, value) triple in the order Add first saw
// the pairs.
func (t *AccumulatorPairI64) ForEach(fn func(a, b, val int64)) {
	for _, i := range t.touched {
		fn(t.keysA[i], t.keysB[i], t.vals[i])
	}
}

// Reset removes all pairs, clearing only the touched slots.
func (t *AccumulatorPairI64) Reset() {
	for _, i := range t.touched {
		t.used[i] = false
	}
	t.touched = t.touched[:0]
	t.size = 0
}

func TestAccumulatorBasic(t *testing.T) {
	a := NewAccumulatorI64(4)
	a.Add(10, 5)
	a.Add(20, 7)
	a.Add(10, 3)
	if v, ok := a.Get(10); !ok || v != 8 {
		t.Fatalf("Get(10) = %d, %v; want 8, true", v, ok)
	}
	if v, ok := a.Get(20); !ok || v != 7 {
		t.Fatalf("Get(20) = %d, %v; want 7, true", v, ok)
	}
	if _, ok := a.Get(30); ok {
		t.Fatal("Get(30) found absent key")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := NewAccumulatorI64(4)
	for i := int64(0); i < 10; i++ {
		a.Add(i, i)
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after reset = %d", a.Len())
	}
	for i := int64(0); i < 10; i++ {
		if _, ok := a.Get(i); ok {
			t.Fatalf("key %d survived reset", i)
		}
	}
	// Table is reusable after reset.
	a.Add(100, 1)
	if v, _ := a.Get(100); v != 1 {
		t.Fatal("reuse after reset failed")
	}
}

func TestAccumulatorGrowth(t *testing.T) {
	a := NewAccumulatorI64(2)
	const n = 10000
	for i := int64(0); i < n; i++ {
		a.Add(i*7919, 2)
	}
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if v, ok := a.Get(i * 7919); !ok || v != 2 {
			t.Fatalf("key %d lost after growth", i*7919)
		}
	}
}

func TestAccumulatorForEachSum(t *testing.T) {
	a := NewAccumulatorI64(8)
	r := rng.New(1)
	want := int64(0)
	for i := 0; i < 1000; i++ {
		k := r.Int64n(100)
		a.Add(k, 3)
		want += 3
	}
	got := int64(0)
	a.ForEach(func(_, v int64) { got += v })
	if got != want {
		t.Fatalf("ForEach sum = %d, want %d", got, want)
	}
}

func TestAccumulatorAgainstMap(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := NewAccumulatorI64(4)
		ref := make(map[int64]int64)
		for i := 0; i < 500; i++ {
			k := r.Int64n(64) - 32
			d := r.Int64n(9) - 4
			a.Add(k, d)
			ref[k] += d
		}
		if a.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := a.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMapBasic(t *testing.T) {
	m := NewMapI64(4)
	m.Put(1, 100)
	m.Put(2, 200)
	m.Put(1, 111)
	if v, ok := m.Get(1); !ok || v != 111 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMapPutIfAbsent(t *testing.T) {
	m := NewMapI64(4)
	v, ins := m.PutIfAbsent(5, 50)
	if !ins || v != 50 {
		t.Fatalf("first PutIfAbsent = %d, %v", v, ins)
	}
	v, ins = m.PutIfAbsent(5, 99)
	if ins || v != 50 {
		t.Fatalf("second PutIfAbsent = %d, %v; want 50, false", v, ins)
	}
}

func TestMapGrowthAgainstMap(t *testing.T) {
	m := NewMapI64(2)
	ref := make(map[int64]int64)
	r := rng.New(77)
	for i := 0; i < 20000; i++ {
		k := r.Int64n(5000)
		v := r.Int64n(1 << 30)
		m.Put(k, v)
		ref[k] = v
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("mismatch at key %d", k)
		}
	}
}

func TestMapForEachCount(t *testing.T) {
	m := NewMapI64(4)
	for i := int64(0); i < 100; i++ {
		m.Put(i, i*i)
	}
	count := 0
	m.ForEach(func(k, v int64) {
		if v != k*k {
			t.Fatalf("ForEach wrong value for key %d", k)
		}
		count++
	})
	if count != 100 {
		t.Fatalf("ForEach visited %d entries", count)
	}
}

func TestMapNegativeKeys(t *testing.T) {
	m := NewMapI64(4)
	m.Put(-1, 10)
	m.Put(-1<<62, 20)
	if v, ok := m.Get(-1); !ok || v != 10 {
		t.Fatal("negative key lookup failed")
	}
	if v, ok := m.Get(-1 << 62); !ok || v != 20 {
		t.Fatal("large negative key lookup failed")
	}
}

func TestSetBasic(t *testing.T) {
	s := NewSetI64(4)
	if !s.Insert(3) {
		t.Fatal("first insert reported duplicate")
	}
	if s.Insert(3) {
		t.Fatal("second insert reported new")
	}
	if !s.Contains(3) || s.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestSetManyKeys(t *testing.T) {
	s := NewSetI64(1)
	for i := int64(0); i < 5000; i++ {
		s.Insert(i * 31)
	}
	if s.Len() != 5000 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := 0
	s.ForEach(func(k int64) {
		if k%31 != 0 {
			t.Fatalf("unexpected key %d", k)
		}
		seen++
	})
	if seen != 5000 {
		t.Fatalf("ForEach visited %d", seen)
	}
}

func TestAccumulatorPairI64Basic(t *testing.T) {
	acc := NewAccumulatorPairI64(4)
	acc.Add(1, 2, 10)
	acc.Add(1, 2, 5)
	acc.Add(2, 1, 7) // reversed pair is a distinct key
	if v, ok := acc.Get(1, 2); !ok || v != 15 {
		t.Fatalf("Get(1,2) = %d,%v, want 15,true", v, ok)
	}
	if v, ok := acc.Get(2, 1); !ok || v != 7 {
		t.Fatalf("Get(2,1) = %d,%v, want 7,true", v, ok)
	}
	if _, ok := acc.Get(3, 3); ok {
		t.Fatal("Get(3,3) found a missing pair")
	}
	if acc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", acc.Len())
	}
	acc.Reset()
	if acc.Len() != 0 {
		t.Fatalf("Len after reset = %d", acc.Len())
	}
	if _, ok := acc.Get(1, 2); ok {
		t.Fatal("pair survived reset")
	}
}

// TestAccumulatorPairI64BoundaryKeys exercises the pair keying exactly
// where the old composite cu*coarseN+cv key broke: coarse ID spaces beyond
// ~3·10^9 where the product overflows int64. Each collision pair below
// composes to the identical (wrapped) int64 under the old scheme but must
// stay distinct as a pair.
func TestAccumulatorPairI64BoundaryKeys(t *testing.T) {
	const coarseN = int64(4_000_000_000) // cu*coarseN overflows for cu >= ~2.3e9
	collisions := [][2][2]int64{
		// (a1,b1) and (a2,b2) with a1*coarseN+b1 == a2*coarseN+b2 mod 2^64.
		{{1 << 62, 5}, {0, 5}},                           // (1<<62)*coarseN wraps to 0
		{{coarseN - 1, 7}, {coarseN - 1 - (1 << 62), 7}}, // same wrap further up
		{{3_000_000_001, 0}, {3_000_000_001, 0}},         // identity sanity pair
	}
	for _, c := range collisions {
		acc := NewAccumulatorPairI64(8)
		acc.Add(c[0][0], c[0][1], 3)
		acc.Add(c[1][0], c[1][1], 4)
		same := c[0] == c[1]
		if same {
			if v, _ := acc.Get(c[0][0], c[0][1]); v != 7 || acc.Len() != 1 {
				t.Errorf("identical pair %v: val=%d len=%d, want 7,1", c[0], v, acc.Len())
			}
			continue
		}
		if acc.Len() != 2 {
			t.Errorf("pairs %v and %v merged (len=%d)", c[0], c[1], acc.Len())
		}
		if v, _ := acc.Get(c[0][0], c[0][1]); v != 3 {
			t.Errorf("pair %v accumulated %d, want 3", c[0], v)
		}
		if v, _ := acc.Get(c[1][0], c[1][1]); v != 4 {
			t.Errorf("pair %v accumulated %d, want 4", c[1], v)
		}
	}
}

func TestAccumulatorPairI64GrowKeepsPairs(t *testing.T) {
	acc := NewAccumulatorPairI64(2)
	const n = 500
	base := int64(3_000_000_000)
	for i := int64(0); i < n; i++ {
		acc.Add(base+i, base+2*i, i)
	}
	if acc.Len() != n {
		t.Fatalf("Len = %d, want %d", acc.Len(), n)
	}
	var count int
	acc.ForEach(func(a, b, v int64) {
		i := a - base
		if b != base+2*i || v != i {
			t.Errorf("pair (%d,%d)=%d corrupted across growth", a, b, v)
		}
		count++
	})
	if count != n {
		t.Fatalf("ForEach visited %d pairs, want %d", count, n)
	}
}

// TestForEachOrderIndependentOfCapacity is the order guarantee of the two
// accumulators: ForEach yields the keys in the order Add first saw them,
// whatever the table's initial capacity was and however often it grew on
// the way. Per-lane tables keep their capacity from one chunk to the next,
// so anything less makes results depend on which lane ran which chunk.
func TestForEachOrderIndependentOfCapacity(t *testing.T) {
	r := rng.New(17)
	keys := make([]int64, 3000)
	for i := range keys {
		keys[i] = r.Int64n(700) // ~700 distinct keys, revisited out of order
	}
	var wantKeys, wantVals []int64 // first-seen order of the Add sequence
	sum := map[int64]int64{}
	for j, k := range keys {
		if _, seen := sum[k]; !seen {
			wantKeys = append(wantKeys, k)
		}
		sum[k] += int64(j)
	}
	for _, k := range wantKeys {
		wantVals = append(wantVals, sum[k])
	}
	for _, capacity := range []int{16, 64, 256, 4096} {
		single, pair := NewAccumulatorI64(capacity), NewAccumulatorPairI64(capacity)
		for j, k := range keys {
			single.Add(k, int64(j))
			pair.Add(k, -k, int64(j))
		}
		var gotKeys, gotVals, pairKeys, pairVals []int64
		single.ForEach(func(k, v int64) { gotKeys, gotVals = append(gotKeys, k), append(gotVals, v) })
		pair.ForEach(func(a, b, v int64) {
			if b != -a {
				t.Fatalf("capacity %d: pair (%d,%d) was never added", capacity, a, b)
			}
			pairKeys, pairVals = append(pairKeys, a), append(pairVals, v)
		})
		if !slices.Equal(gotKeys, wantKeys) || !slices.Equal(gotVals, wantVals) {
			t.Errorf("AccumulatorI64 capacity %d: ForEach order is not the first-Add order", capacity)
		}
		if !slices.Equal(pairKeys, wantKeys) || !slices.Equal(pairVals, wantVals) {
			t.Errorf("AccumulatorPairI64 capacity %d: ForEach order is not the first-Add order", capacity)
		}
	}
}

// TestDenseAccumulatorMatchesHash feeds the same random Add sequences —
// revisits, resets in between, keys never touched — to the dense and the
// hash accumulator and requires the same ForEach sequence and the same Get
// for every key of the range: a block-keyed kernel that swaps one for the
// other sees the same candidates in the same order. Every other dense table
// is carved from an arena, as the contraction's is.
func TestDenseAccumulatorMatchesHash(t *testing.T) {
	r := rng.New(23)
	for i, k := range []int{1, 1, 2, 2, 16, 16, 300, 300} {
		dense, hash := NewDenseAccumulator(k), NewAccumulatorI64(4)
		if i%2 == 1 {
			dense = NewDenseAccumulatorIn(arena.New(), k)
		}
		for round := 0; round < 50; round++ {
			dense.Reset()
			hash.Reset()
			for n := r.Intn(3 * k); n > 0; n-- {
				key, delta := r.Int64n(int64(k)), r.Int64n(9)-4
				dense.Add(key, delta)
				hash.Add(key, delta)
			}
			var got, want [][2]int64
			dense.ForEach(func(key, v int64) { got = append(got, [2]int64{key, v}) })
			hash.ForEach(func(key, v int64) { want = append(want, [2]int64{key, v}) })
			if !slices.Equal(got, want) || dense.Len() != hash.Len() {
				t.Fatalf("k=%d round %d: ForEach gave %v (Len %d), hash accumulator %v (Len %d)", k, round, got, dense.Len(), want, hash.Len())
			}
			for key := int64(0); key < int64(k); key++ {
				gv, gok := dense.Get(key)
				wv, wok := hash.Get(key)
				if gv != wv || gok != wok {
					t.Fatalf("k=%d round %d: Get(%d) = %d,%v, hash accumulator %d,%v", k, round, key, gv, gok, wv, wok)
				}
			}
		}
	}
}

// accRow returns one of the rows TestAccumulatorI64MatchesOracle feeds the table:
// 0–64 distinct keys each, drawn in one of several shapes and added three
// times over on average, so duplicates land both before and after the row
// crosses scanKeys distinct keys.
func accRow(r *rng.RNG) []int64 {
	distinct := r.Intn(65)
	if r.Intn(3) == 0 {
		distinct = scanKeys - 2 + r.Intn(5) // around the switch
	}
	pool := make([]int64, distinct)
	shape := r.Intn(4)
	base := r.Int64n(1<<40) - 1<<39
	for i := range pool {
		switch shape {
		case 0: // consecutive node IDs
			pool[i] = base + int64(i)
		case 1: // the edges of the key space
			pool[i] = []int64{0, -1, math.MaxInt64, math.MinInt64, 1, -base}[i%6] + int64(i/6)*(1<<32)
		case 2: // one home slot: the multiplier's top bits cannot tell them apart
			pool[i] = int64(i) << 58
		default:
			pool[i] = int64(r.Uint64())
		}
	}
	row := slices.Clone(pool)
	for n := r.Intn(2*distinct + 1); n > 0; n-- {
		row = append(row, pool[r.Intn(distinct)])
	}
	r.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
	return row
}

// TestAccumulatorI64MatchesOracle holds AccumulatorI64 to a map plus a
// first-seen list, after every Add of random rows: per-key sums, Get of keys
// never added, Len and the ForEach order, while the row is still scanned and
// after it is indexed. Tables are reused across Reset, start small enough to
// grow, and come from the heap and from an arena.
func TestAccumulatorI64MatchesOracle(t *testing.T) {
	r := rng.New(41)
	for ti, acc := range []*AccumulatorI64{
		NewAccumulatorI64(4), NewAccumulatorI64In(arena.New(), 4),
		NewAccumulatorI64(64), NewAccumulatorI64In(arena.New(), 64),
	} {
		for round := 0; round < 400; round++ {
			acc.Reset()
			row := accRow(r)
			sum := map[int64]int64{}
			var seen []int64
			check := func(at int) {
				t.Helper()
				var gotK, gotV []int64
				acc.ForEach(func(k, v int64) { gotK, gotV = append(gotK, k), append(gotV, v) })
				wantV := make([]int64, len(seen))
				for i, k := range seen {
					wantV[i] = sum[k]
					if v, ok := acc.Get(k); !ok || v != sum[k] {
						t.Fatalf("table %d round %d after %d adds: Get(%d) = %d,%v, want %d,true", ti, round, at, k, v, ok, sum[k])
					}
				}
				if !slices.Equal(gotK, seen) || !slices.Equal(gotV, wantV) || acc.Len() != len(seen) {
					t.Fatalf("table %d round %d after %d adds: ForEach %v %v, Len %d; want %v %v", ti, round, at, gotK, gotV, acc.Len(), seen, wantV)
				}
				for _, k := range []int64{0, -1, math.MaxInt64, math.MinInt64, 3 << 58, int64(r.Uint64())} {
					if _, in := sum[k]; in {
						continue
					}
					if v, ok := acc.Get(k); ok {
						t.Fatalf("table %d round %d after %d adds: Get(%d) of an absent key = %d,true", ti, round, at, k, v)
					}
				}
			}
			check(0)
			for j, k := range row {
				if _, in := sum[k]; !in {
					seen = append(seen, k)
				}
				delta := r.Int64n(9) - 4
				sum[k] += delta
				acc.Add(k, delta)
				check(j + 1)
			}
		}
	}
}

// TestAccumulatorI64GenerationWrap: when Reset's generation counter wraps,
// the slots written by the first generation must not read as live again.
func TestAccumulatorI64GenerationWrap(t *testing.T) {
	acc := NewAccumulatorI64(16)
	for k := int64(0); k < 20; k++ {
		acc.Add(k, 1) // indexed under generation 1
	}
	acc.Reset()
	acc.gen = math.MaxUint64 &^ entryBits // the last generation
	for k := int64(100); k < 120; k++ {
		acc.Add(k, 1)
	}
	acc.Reset() // wraps to generation 1
	for k := int64(200); k < 220; k++ {
		acc.Add(k, 1)
	}
	for k := int64(0); k < 20; k++ {
		if v, ok := acc.Get(k); ok {
			t.Fatalf("key %d of a generation-1 row reads %d after the wrap", k, v)
		}
	}
	if acc.Len() != 20 {
		t.Fatalf("Len = %d, want 20", acc.Len())
	}
}
