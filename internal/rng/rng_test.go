package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(0)
	b := root.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams produced %d/100 identical values", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() *RNG {
		r := New(99)
		r.Uint64()
		return r.Split(5)
	}
	a, b := mk(), mk()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams from identical parents diverged at %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("Intn(8) covered only %d values in 1000 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntRangeInclusive(t *testing.T) {
	r := New(21)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := r.IntRange(10, 25)
		if v < 10 || v > 25 {
			t.Fatalf("IntRange(10,25) = %d", v)
		}
		if v == 10 {
			seenLo = true
		}
		if v == 25 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("IntRange never hit one of its endpoints in 10000 draws")
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(13)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed multiset sum: %d -> %d", sum, sum2)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(17)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("Bool true fraction = %v", frac)
	}
}

func TestInt64nRange(t *testing.T) {
	r := New(31)
	for i := 0; i < 1000; i++ {
		v := r.Int64n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
}

func TestInt31nRange(t *testing.T) {
	r := New(37)
	for i := 0; i < 1000; i++ {
		v := r.Int31n(1000)
		if v < 0 || v >= 1000 {
			t.Fatalf("Int31n out of range: %d", v)
		}
	}
}
