package mpi

import "testing"

func BenchmarkSendRecv(b *testing.B) {
	w := NewWorld(2)
	payload := make([]int64, 128)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, payload)
			} else {
				c.Recv(0, 1)
			}
		}
	})
}

func BenchmarkAllreduce8x64(b *testing.B) {
	w := NewWorld(8)
	vals := make([]int64, 64)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.AllreduceSum(vals)
		}
	})
}

func BenchmarkAlltoallv8(b *testing.B) {
	w := NewWorld(8)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		out := make([][]int64, 8)
		for d := range out {
			out[d] = make([]int64, 32)
		}
		for i := 0; i < b.N; i++ {
			c.Alltoallv(out)
		}
	})
}

func BenchmarkExScan8(b *testing.B) {
	w := NewWorld(8)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		for i := 0; i < b.N; i++ {
			c.ExScanSum(int64(c.Rank()))
		}
	})
}
