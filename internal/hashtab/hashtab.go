// Package hashtab implements open-addressing hash tables with linear
// probing.
//
// The paper (§IV-A) observes that during label propagation "hashing with
// linear probing is much faster than using the hash map of the STL" for
// aggregating the edge weight towards each neighbouring cluster, because the
// number of distinct keys is bounded by the node degree and the table is
// reused across nodes. These tables fill the same role here: they are
// allocation-free in steady state and support O(keys) reset via a key log.
//
// The *In constructors carve the backing arrays out of an arena instead of
// the heap, so per-call tables recycle their memory across V-cycle
// levels. Growth beyond the initial capacity falls
// back to plain heap slices — an arena is a bump allocator and cannot free
// the outgrown arrays early.
//
// Which accumulator: AccumulatorI64 hashes, for keys drawn from the node ID
// space (cluster labels: sclp's clustering kernels, the contraction's rows);
// DenseAccumulator indexes, for keys in a small known range [0, k) (block
// IDs: sclp's refinement, demand and rebalance kernels, kaffpa's FM). A
// block-keyed caller must use the dense one — hashing a key that is already
// an array index buys nothing — and a label-keyed caller cannot.
//
// Order guarantee: ForEach on the accumulators visits the keys in the order
// Add first saw them since the last Reset. That order is a function of the
// Add sequence alone — not of the table's kind or capacity, nor of whether
// or when it grew — so a table that is kept across uses (a sweep's, the
// contraction's) iterates exactly like a fresh one, and DenseAccumulator iterates exactly
// like AccumulatorI64. MapI64 and SetI64 iterate in unspecified order.
//
// AccumulatorPairI64 has no production caller since the contraction groups
// by cluster and keys its rows by the destination alone; the benchmark's
// hashtab.pair_add_mops substrate is what keeps it.
package hashtab

import "repro/internal/arena"

// AccumulatorI64 maps int64 keys to accumulated int64 values. It is designed
// for the aggregate-then-scan-then-reset pattern of label propagation: Add
// accumulates into a slot, Keys exposes the occupied keys, and Reset clears
// exactly the touched slots.
type AccumulatorI64 struct {
	keys    []int64
	vals    []int64
	used    []bool
	touched []int
	mask    uint64
	size    int
}

// NewAccumulatorI64 returns a table with capacity for at least capacity keys
// before growth. Capacity is rounded up to a power of two and doubled to
// keep the load factor at most 1/2.
func NewAccumulatorI64(capacity int) *AccumulatorI64 {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return &AccumulatorI64{
		keys:    make([]int64, n),
		vals:    make([]int64, n),
		used:    make([]bool, n),
		touched: make([]int, 0, capacity),
		mask:    uint64(n - 1),
	}
}

// NewAccumulatorI64In is NewAccumulatorI64 with the backing arrays carved
// from ar. A nil arena degrades to heap allocation.
func NewAccumulatorI64In(ar *arena.Arena, capacity int) *AccumulatorI64 {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return &AccumulatorI64{
		keys:    ar.Int64s(n),
		vals:    ar.Int64s(n),
		used:    ar.Bools(n),
		touched: ar.Ints(capacity)[:0],
		mask:    uint64(n - 1),
	}
}

func hash64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add accumulates delta into the value for key, inserting the key with value
// delta if absent.
//
//parhip:hotpath
func (t *AccumulatorI64) Add(key, delta int64) {
	if 2*(t.size+1) > len(t.keys) {
		t.grow()
	}
	i := hash64(key) & t.mask
	for {
		if !t.used[i] {
			t.used[i] = true
			t.keys[i] = key
			t.vals[i] = delta
			t.touched = append(t.touched, int(i))
			t.size++
			return
		}
		if t.keys[i] == key {
			t.vals[i] += delta
			return
		}
		i = (i + 1) & t.mask
	}
}

// Get returns the accumulated value for key and whether the key is present.
//
//parhip:hotpath
func (t *AccumulatorI64) Get(key int64) (int64, bool) {
	i := hash64(key) & t.mask
	for t.used[i] {
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
	return 0, false
}

// Len returns the number of distinct keys in the table.
func (t *AccumulatorI64) Len() int { return t.size }

// ForEach calls fn for every (key, value) pair in the order Add first saw
// the keys (see the package comment's order guarantee).
func (t *AccumulatorI64) ForEach(fn func(key, val int64)) {
	for _, i := range t.touched {
		fn(t.keys[i], t.vals[i])
	}
}

// Reset removes all keys. Only slots touched since the previous Reset are
// cleared, so a Reset after aggregating deg(v) keys costs O(deg(v)).
func (t *AccumulatorI64) Reset() {
	for _, i := range t.touched {
		t.used[i] = false
	}
	t.touched = t.touched[:0]
	t.size = 0
}

// grow doubles the table and re-inserts the entries in touched order, so
// the rebuilt touched log lists the keys in the order Add first saw them —
// re-inserting in slot order would make ForEach depend on when the table
// grew. The log is rebuilt in place: entry k is read before the k-th
// re-insert overwrites it.
func (t *AccumulatorI64) grow() {
	oldKeys, oldVals, oldTouched := t.keys, t.vals, t.touched
	n := 2 * len(oldKeys)
	t.keys = make([]int64, n)
	t.vals = make([]int64, n)
	t.used = make([]bool, n)
	t.touched = oldTouched[:0]
	t.mask = uint64(n - 1)
	t.size = 0
	for _, i := range oldTouched {
		t.Add(oldKeys[i], oldVals[i])
	}
}

// DenseAccumulator is AccumulatorI64 for keys in [0, k): the same
// Add/Get/ForEach/Reset surface and the same first-seen ForEach order, with
// an array index where the hash table probes. A key outside [0, k) is a
// caller bug and panics on the index.
type DenseAccumulator struct {
	vals    []int64
	seen    []bool
	touched []int64 // keys in first-Add order
}

// NewDenseAccumulator returns an accumulator for keys in [0, k).
func NewDenseAccumulator(k int) *DenseAccumulator {
	return &DenseAccumulator{
		vals:    make([]int64, k),
		seen:    make([]bool, k),
		touched: make([]int64, 0, k),
	}
}

// Add accumulates delta into the value for key.
//
//parhip:hotpath
func (t *DenseAccumulator) Add(key, delta int64) {
	if t.seen[key] {
		t.vals[key] += delta
		return
	}
	t.seen[key] = true
	t.vals[key] = delta
	t.touched = append(t.touched, key)
}

// Get returns the accumulated value for key and whether Add saw the key
// since the last Reset.
//
//parhip:hotpath
func (t *DenseAccumulator) Get(key int64) (int64, bool) {
	if !t.seen[key] {
		return 0, false
	}
	return t.vals[key], true
}

// ForEach calls fn for every (key, value) pair in the order Add first saw
// the keys (see the package comment's order guarantee).
//
//parhip:hotpath
func (t *DenseAccumulator) ForEach(fn func(key, val int64)) {
	for _, k := range t.touched {
		fn(k, t.vals[k])
	}
}

// Reset removes all keys in O(keys added).
//
//parhip:hotpath
func (t *DenseAccumulator) Reset() {
	for _, k := range t.touched {
		t.seen[k] = false
	}
	t.touched = t.touched[:0]
}

// MapI64 maps int64 keys to int64 values with last-write-wins semantics.
// It is used for global-to-local ID translation of ghost nodes and for
// cluster-ID deduplication during contraction.
type MapI64 struct {
	keys []int64
	vals []int64
	used []bool
	mask uint64
	size int
}

// NewMapI64 returns a map with capacity for at least capacity keys before
// growth.
func NewMapI64(capacity int) *MapI64 {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return &MapI64{
		keys: make([]int64, n),
		vals: make([]int64, n),
		used: make([]bool, n),
		mask: uint64(n - 1),
	}
}

// Put sets the value for key, overwriting any previous value.
//
//parhip:hotpath
func (m *MapI64) Put(key, val int64) {
	if 2*(m.size+1) > len(m.keys) {
		m.grow()
	}
	i := hash64(key) & m.mask
	for {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = key
			m.vals[i] = val
			m.size++
			return
		}
		if m.keys[i] == key {
			m.vals[i] = val
			return
		}
		i = (i + 1) & m.mask
	}
}

// PutIfAbsent inserts (key, val) if key is not present and returns the value
// now stored for key together with whether an insert happened.
//
//parhip:hotpath
func (m *MapI64) PutIfAbsent(key, val int64) (int64, bool) {
	if 2*(m.size+1) > len(m.keys) {
		m.grow()
	}
	i := hash64(key) & m.mask
	for {
		if !m.used[i] {
			m.used[i] = true
			m.keys[i] = key
			m.vals[i] = val
			m.size++
			return val, true
		}
		if m.keys[i] == key {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
}

// Get returns the value stored for key and whether the key is present.
//
//parhip:hotpath
func (m *MapI64) Get(key int64) (int64, bool) {
	i := hash64(key) & m.mask
	for m.used[i] {
		if m.keys[i] == key {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// Len returns the number of distinct keys.
func (m *MapI64) Len() int { return m.size }

// ForEach calls fn for every (key, value) pair in unspecified order.
func (m *MapI64) ForEach(fn func(key, val int64)) {
	for i, u := range m.used {
		if u {
			fn(m.keys[i], m.vals[i])
		}
	}
}

func (m *MapI64) grow() {
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	n := 2 * len(oldKeys)
	m.keys = make([]int64, n)
	m.vals = make([]int64, n)
	m.used = make([]bool, n)
	m.mask = uint64(n - 1)
	m.size = 0
	for i, u := range oldUsed {
		if u {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// SetI64 is a set of int64 keys built on the same probing scheme.
type SetI64 struct {
	m MapI64
}

// NewSetI64 returns a set with capacity for at least capacity keys before
// growth.
func NewSetI64(capacity int) *SetI64 {
	return &SetI64{m: *NewMapI64(capacity)}
}

// Insert adds key to the set and reports whether it was newly inserted.
func (s *SetI64) Insert(key int64) bool {
	_, inserted := s.m.PutIfAbsent(key, 0)
	return inserted
}

// Contains reports whether key is in the set.
func (s *SetI64) Contains(key int64) bool {
	_, ok := s.m.Get(key)
	return ok
}

// Len returns the number of keys in the set.
func (s *SetI64) Len() int { return s.m.size }

// ForEach calls fn for every key in unspecified order.
func (s *SetI64) ForEach(fn func(key int64)) {
	s.m.ForEach(func(k, _ int64) { fn(k) })
}

// AccumulatorPairI64 maps (int64, int64) key pairs to accumulated int64
// values with the same open-addressing scheme as AccumulatorI64. The pair is
// stored as-is: composing it into one int64 as a*n+b overflows once n
// exceeds ~3·10^9, silently merging unrelated keys. Kept for the benchmark's
// hashtab.pair_add_mops substrate (see the package comment).
type AccumulatorPairI64 struct {
	keysA   []int64
	keysB   []int64
	vals    []int64
	used    []bool
	touched []int
	mask    uint64
	size    int
}

// NewAccumulatorPairI64 returns a table with capacity for at least capacity
// pairs before growth.
func NewAccumulatorPairI64(capacity int) *AccumulatorPairI64 {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return &AccumulatorPairI64{
		keysA:   make([]int64, n),
		keysB:   make([]int64, n),
		vals:    make([]int64, n),
		used:    make([]bool, n),
		touched: make([]int, 0, capacity),
		mask:    uint64(n - 1),
	}
}

// hashPair64 mixes both halves of the key through two rounds of hash64 so
// pairs like (a, b) and (b, a) land in unrelated slots.
func hashPair64(a, b int64) uint64 {
	return hash64(int64(hash64(a)) ^ b)
}

// Add accumulates delta into the value for (a, b), inserting the pair with
// value delta if absent.
func (t *AccumulatorPairI64) Add(a, b, delta int64) {
	if 2*(t.size+1) > len(t.keysA) {
		t.grow()
	}
	i := hashPair64(a, b) & t.mask
	for {
		if !t.used[i] {
			t.used[i] = true
			t.keysA[i] = a
			t.keysB[i] = b
			t.vals[i] = delta
			t.touched = append(t.touched, int(i))
			t.size++
			return
		}
		if t.keysA[i] == a && t.keysB[i] == b {
			t.vals[i] += delta
			return
		}
		i = (i + 1) & t.mask
	}
}

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

// grow re-inserts in touched order, like AccumulatorI64.grow.
func (t *AccumulatorPairI64) grow() {
	oldA, oldB, oldVals, oldTouched := t.keysA, t.keysB, t.vals, t.touched
	n := 2 * len(oldA)
	t.keysA = make([]int64, n)
	t.keysB = make([]int64, n)
	t.vals = make([]int64, n)
	t.used = make([]bool, n)
	t.touched = oldTouched[:0]
	t.mask = uint64(n - 1)
	t.size = 0
	for _, i := range oldTouched {
		t.Add(oldA[i], oldB[i], oldVals[i])
	}
}
