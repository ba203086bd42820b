// Package hashtab implements open-addressing hash tables with linear
// probing.
//
// The paper (§IV-A) observes that during label propagation "hashing with
// linear probing is much faster than using the hash map of the STL" for
// aggregating the edge weight towards each neighbouring cluster, because the
// number of distinct keys is bounded by the node degree and the table is
// reused across nodes. These tables fill the same role here: they are
// allocation-free in steady state, and the accumulators reset in O(keys)
// or less.
//
// The *In constructors carve the backing arrays out of an arena instead of
// the heap, so per-call tables recycle their memory across V-cycle
// levels. Growth beyond the initial capacity falls
// back to plain heap slices — an arena is a bump allocator and cannot free
// the outgrown arrays early.
//
// Which accumulator: DenseAccumulator indexes, for keys in a small known
// range [0, k) (block IDs: sclp's refinement, demand and rebalance kernels,
// kaffpa's FM; the contraction's rows, keyed by the dense cluster index it
// assigns). A caller whose key is already a small array index must use the
// dense one; hashing it buys nothing. sclp's clustering sweep rates cluster
// labels in neither: its label indices span a rank's nodes, and it keeps a
// rating next to each index's cluster weight (DESIGN §13 rule 6).
// AccumulatorI64 is for keys from a range too large for an array. It has
// no production caller; the benchmark's hashtab.add_mops substrate and the
// test oracles keep it.
//
// Order guarantee: ForEach on the accumulators visits the keys in the order
// Add first saw them since the last Reset. That order is a function of the
// Add sequence alone — not of the table's kind or capacity, nor of whether
// or when it grew — so a table that is kept across uses (a sweep's, the
// contraction's) iterates exactly like a fresh one, and
// DenseAccumulator iterates exactly like AccumulatorI64. MapI64 iterates in
// unspecified order; a caller that needs a set uses PutIfAbsent and ignores
// the value. MapI64 numbers and deduplicates keys; it does not translate
// ghost IDs, which dgraph does with a smaller table of its own.
//
// AccumulatorPairI64 has no production caller since the contraction groups
// by cluster and keys its rows by the destination's cluster index; the
// benchmark's hashtab.pair_add_mops substrate is what keeps it.
package hashtab

import (
	"math/bits"

	"repro/internal/arena"
)

// AccumulatorI64 maps int64 keys to accumulated int64 values. It is designed
// for the aggregate-then-scan-then-reset pattern of label propagation: Add
// accumulates into an entry, ForEach walks the entries, and Reset empties
// the table in O(1).
//
// The entries live in keys/vals in the order Add first saw them; pos is a
// linear-probing index over them.
type AccumulatorI64 struct {
	keys, vals []int64
	// pos maps a slot to an entry: the low 32 bits are the entry's index,
	// the high 32 bits the generation that wrote it. A slot whose
	// generation is not gen is empty, so Reset only advances gen.
	pos   []uint64
	gen   uint64 // current generation, pre-shifted into the high 32 bits
	shift uint   // 64 - log2(len(pos)), for slot
}

// NewAccumulatorI64 returns a table with capacity for at least capacity keys
// before growth. The index has a power-of-two size at least twice capacity,
// keeping the load factor at most 1/2.
func NewAccumulatorI64(capacity int) *AccumulatorI64 {
	n := 16
	for n < 2*capacity {
		n *= 2
	}
	return &AccumulatorI64{
		keys:  make([]int64, 0, n/2),
		vals:  make([]int64, 0, n/2),
		pos:   make([]uint64, n),
		gen:   1 << 32,
		shift: uint(64 - bits.TrailingZeros(uint(n))),
	}
}

// entryBits masks a pos word down to its entry index.
const entryBits = 1<<32 - 1

// slot is key's home slot in pos: Fibonacci hashing, one multiply whose top
// bits are the slot. It spreads runs of consecutive labels evenly, at a
// third of hash64's chain of multiplies.
func (t *AccumulatorI64) slot(key int64) uint64 {
	return (uint64(key) * 0x9e3779b97f4a7c15) >> t.shift
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
	i := t.slot(key)
	for ; t.pos[i]&^entryBits == t.gen; i = (i + 1) & uint64(len(t.pos)-1) {
		if e := t.pos[i] & entryBits; t.keys[e] == key {
			t.vals[e] += delta
			return
		}
	}
	t.pos[i] = t.gen | uint64(len(t.keys))
	t.keys = append(t.keys, key)
	t.vals = append(t.vals, delta)
	if 2*len(t.keys) > len(t.pos) {
		t.pos = make([]uint64, 2*len(t.pos))
		t.shift--
		t.index()
	}
}

// index places every entry in the fresh pos that Add doubled it into.
func (t *AccumulatorI64) index() {
	for e, key := range t.keys {
		i := t.slot(key)
		for t.pos[i]&^entryBits == t.gen {
			i = (i + 1) & uint64(len(t.pos)-1)
		}
		t.pos[i] = t.gen | uint64(e)
	}
}

// Get returns the accumulated value for key and whether the key is present.
//
//parhip:hotpath
func (t *AccumulatorI64) Get(key int64) (int64, bool) {
	for i := t.slot(key); t.pos[i]&^entryBits == t.gen; i = (i + 1) & uint64(len(t.pos)-1) {
		if e := t.pos[i] & entryBits; t.keys[e] == key {
			return t.vals[e], true
		}
	}
	return 0, false
}

// ForEach calls fn for every (key, value) pair in the order Add first saw
// the keys (see the package comment's order guarantee).
//
//parhip:hotpath
func (t *AccumulatorI64) ForEach(fn func(key, val int64)) {
	for i, k := range t.keys {
		fn(k, t.vals[i])
	}
}

// Reset removes all keys in O(1): pos moves to the next generation, which
// empties every slot at once.
//
//parhip:hotpath
func (t *AccumulatorI64) Reset() {
	t.gen += 1 << 32
	if t.gen == 0 { // the generation wrapped: slots of generation 1 would read as live
		clear(t.pos)
		t.gen = 1 << 32
	}
	t.keys, t.vals = t.keys[:0], t.vals[:0]
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
func NewDenseAccumulator(k int) *DenseAccumulator { return NewDenseAccumulatorIn(nil, k) }

// NewDenseAccumulatorIn is NewDenseAccumulator with the backing arrays
// carved from ar. A nil arena degrades to heap allocation.
func NewDenseAccumulatorIn(ar *arena.Arena, k int) *DenseAccumulator {
	return &DenseAccumulator{vals: ar.Int64s(k), seen: ar.Bools(k), touched: ar.Int64s(k)[:0]}
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

// Len returns the number of distinct keys since the last Reset.
func (t *DenseAccumulator) Len() int { return len(t.touched) }

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
// It numbers distinct keys densely in first-seen order (the contraction's
// cluster index, kaffpa's composite constraint, sclp's foreign labels) and
// keeps small sets (ParLift's coarse nodes, sclp's open clusters). Ghost
// translation does not use it: dgraph's ghost index stores 4-byte indices
// and reads the keys back from the ghost list, where a MapI64 slot costs
// 17 bytes.
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
