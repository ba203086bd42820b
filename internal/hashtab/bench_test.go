package hashtab

import (
	"testing"

	"repro/internal/rng"
)

// The accumulate/scan/reset pattern of label propagation, comparing the
// linear-probing table against the built-in map (the paper's STL-hash-map
// observation, §IV-A).

func BenchmarkAccumulatorLP(b *testing.B) {
	r := rng.New(1)
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = r.Int64n(1 << 30)
	}
	acc := NewAccumulatorI64(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, k := range keys {
			acc.Add(k, 1)
		}
		var sum int64
		acc.ForEach(func(_, v int64) { sum += v })
	}
}

// BenchmarkAccumulatorSmallRows is the mesh's clustering shape: rows of
// degree 6 whose labels repeat (drawn from 4 consecutive IDs), each row
// accumulated, read back for the incumbent and walked once.
func BenchmarkAccumulatorSmallRows(b *testing.B) {
	r := rng.New(3)
	rows := make([][6]int64, 256)
	for i := range rows {
		base := r.Int64n(1 << 30)
		for j := range rows[i] {
			rows[i][j] = base + r.Int64n(4)
		}
	}
	acc := NewAccumulatorI64(64)
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := &rows[i%len(rows)]
		acc.Reset()
		for _, k := range row {
			acc.Add(k, 1)
		}
		c, _ := acc.Get(row[0])
		acc.ForEach(func(_, v int64) { sum += v - c })
	}
	sink = sum
}

// blockRows is the block-keyed shape of refinement and FM: rows of degree
// 12 whose keys are block IDs below k=16.
func blockRows() [][12]int64 {
	r := rng.New(2)
	rows := make([][12]int64, 256)
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = r.Int64n(16)
		}
	}
	return rows
}

// BenchmarkAccumulatorBlocksLP is what the block-keyed kernels paid while
// they hashed; BenchmarkDenseAccumulatorLP is the same rows through the
// dense accumulator.
func BenchmarkAccumulatorBlocksLP(b *testing.B) {
	rows := blockRows()
	acc := NewAccumulatorI64(64)
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, k := range rows[i%len(rows)] {
			acc.Add(k, 1)
		}
		acc.ForEach(func(_, v int64) { sum += v })
	}
	sink = sum
}

func BenchmarkDenseAccumulatorLP(b *testing.B) {
	rows := blockRows()
	acc := NewDenseAccumulator(16)
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, k := range rows[i%len(rows)] {
			acc.Add(k, 1)
		}
		acc.ForEach(func(_, v int64) { sum += v })
	}
	sink = sum
}

var sink int64

func BenchmarkBuiltinMapLP(b *testing.B) {
	r := rng.New(1)
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = r.Int64n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[int64]int64, 64)
		for _, k := range keys {
			m[k]++
		}
		var sum int64
		for _, v := range m {
			sum += v
		}
	}
}

func BenchmarkMapPutGet(b *testing.B) {
	m := NewMapI64(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % 4096)
		m.Put(k, int64(i))
		m.Get(k)
	}
}

func BenchmarkSetInsert(b *testing.B) {
	s := NewSetI64(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(int64(i % 8192))
	}
}
