package arena

import "testing"

func TestAllocZeroedAndDisjoint(t *testing.T) {
	a := New()
	x := a.Int64s(100)
	y := a.Int64s(100)
	for i := range x {
		x[i] = int64(i) + 1
	}
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %d, want zeroed", i, v)
		}
	}
	y[0] = 7
	if x[99] != 100 {
		t.Fatal("allocations alias")
	}
}

func TestResetRecycles(t *testing.T) {
	a := New()
	first := a.Int64s(64)
	first[0] = 42
	a.Reset()
	second := a.Int64s(64)
	if &first[0] != &second[0] {
		t.Error("Reset did not recycle the slab")
	}
	if second[0] != 0 {
		t.Errorf("recycled slab not zeroed: %d", second[0])
	}
}

func TestLargeAllocationGetsOwnSlab(t *testing.T) {
	a := New()
	big := a.Int32s(3 * slabMin)
	if len(big) != 3*slabMin {
		t.Fatalf("len = %d", len(big))
	}
	// A later small allocation must not collide with the big slab.
	small := a.Ints(10)
	small[0] = 1
	if big[0] != 0 {
		t.Error("allocations alias")
	}
}

func TestNilArenaFallsBackToMake(t *testing.T) {
	var a *Arena
	s := a.Int64s(5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	a.Reset() // must not panic
}

func TestSteadyStateNoAllocs(t *testing.T) {
	a := New()
	// Warm up the slabs.
	a.Int64s(1000)
	a.Int32s(1000)
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.Int64s(1000)
		_ = a.Int32s(1000)
		a.Reset()
	})
	if allocs != 0 {
		t.Errorf("steady-state arena use allocates %v/op, want 0", allocs)
	}
}

func TestZeroLengthAlloc(t *testing.T) {
	a := New()
	if s := a.Bools(0); s != nil {
		t.Errorf("zero-length alloc: %v", s)
	}
	if s := a.Uint64s(0); s != nil {
		t.Errorf("zero-length alloc: %v", s)
	}
}
