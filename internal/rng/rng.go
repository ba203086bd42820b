// Package rng provides a small, fast, deterministic pseudo-random number
// generator with splittable streams.
//
// Every randomized component of the partitioner (label propagation tie
// breaking, node-order shuffles, evolutionary operators, graph generators)
// takes an explicit *rng.RNG so that runs are reproducible for a fixed seed
// and, in the parallel setting, for a fixed (seed, rank) pair. The generator
// is a PCG-XSH-RR variant (64-bit state, 32-bit output) extended with a
// 64-bit output path; it is not cryptographically secure.
package rng

// RNG is a deterministic pseudo-random number generator. The zero value is
// not useful; construct instances with New or Split.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed. Two generators constructed with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{inc: 1442695040888963407}
	r.state = 0
	r.next32()
	r.state += seed
	r.next32()
	return r
}

// Reseed resets r in place to the exact state New(seed) would construct,
// without allocating. The label-propagation sweeps reseed their generator
// at every phase boundary, so a phase's tie-breaking stream is a function
// of its seed alone.
func (r *RNG) Reseed(seed uint64) {
	r.inc = 1442695040888963407
	r.state = 0
	r.next32()
	r.state += seed
	r.next32()
}

// Split derives an independent generator from r. The derived stream is a
// deterministic function of r's current state, so calling Split at the same
// point in two identical runs yields identical children. It is used to hand
// each simulated PE its own stream.
func (r *RNG) Split(stream uint64) *RNG {
	c := &RNG{inc: (2*stream + 1) | 1}
	c.state = 0
	c.next32()
	c.state += r.Uint64() ^ (stream * 0x9e3779b97f4a7c15)
	c.next32()
	return c
}

func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *RNG) Uint32() uint32 { return r.next32() }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi := uint64(r.next32())
	lo := uint64(r.next32())
	return hi<<32 | lo
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	if n <= 0 {
		panic("rng: Int31n with non-positive n")
	}
	return int32(r.Uint32() % uint32(n))
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.next32()&1 == 1 }

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Shuffle pseudo-randomly permutes the order of n elements using the
// provided swap function (Fisher-Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
