package mpi

import (
	"sync/atomic"
	"testing"
)

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 42, []int64{1, 2, 3})
		} else {
			got := c.Recv(0, 42)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int64{9}
			c.Send(1, 1, buf)
			buf[0] = 0 // must not affect the receiver
			c.Send(1, 2, nil)
		} else {
			if got := c.Recv(0, 1); got[0] != 9 {
				t.Errorf("payload mutated after send: %v", got)
			}
			c.Recv(0, 2)
		}
	})
}

func TestTagMatching(t *testing.T) {
	// Messages with different tags can be received out of send order.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []int64{10})
			c.Send(1, 2, []int64{20})
		} else {
			if got := c.Recv(0, 2); got[0] != 20 {
				t.Errorf("tag 2 got %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 10 {
				t.Errorf("tag 1 got %v", got)
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := int64(0); i < 100; i++ {
				c.Send(1, 7, []int64{i})
			}
		} else {
			for i := int64(0); i < 100; i++ {
				if got := c.Recv(0, 7)[0]; got != i {
					t.Errorf("message %d arrived as %d", i, got)
					return
				}
			}
		}
	})
}

// Barrier blocks until every rank has entered the barrier. Production code
// synchronizes through the collectives that carry its data, so only the
// tests here need a bare barrier.
func (c *Comm) Barrier() {
	tag := c.nextSeq()
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			c.recv(r, kindCollective, tag)
		}
		for r := 1; r < c.Size(); r++ {
			c.send(r, kindCollective, tag, nil)
		}
	} else {
		c.send(0, kindCollective, tag, nil)
		c.recv(0, kindCollective, tag)
	}
}

func TestBarrier(t *testing.T) {
	const P = 8
	w := NewWorld(P)
	var phase atomic.Int64
	w.Run(func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if got := phase.Load(); got != P {
			t.Errorf("rank %d passed barrier with phase=%d", c.Rank(), got)
		}
		c.Barrier()
	})
}

func TestBcast(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		var data []int64
		if c.Rank() == 2 {
			data = []int64{5, 6, 7}
		}
		got := c.Bcast(2, data)
		if len(got) != 3 || got[0] != 5 || got[2] != 7 {
			t.Errorf("rank %d bcast got %v", c.Rank(), got)
		}
	})
}

func TestGather(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		out := c.Gather(0, []int64{int64(c.Rank() * 10)})
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				if out[r][0] != int64(r*10) {
					t.Errorf("gather slot %d = %v", r, out[r])
				}
			}
		} else if out != nil {
			t.Errorf("non-root rank %d got non-nil gather", c.Rank())
		}
	})
}

func TestAllgatherv(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		// Variable lengths: rank r contributes r+1 values.
		data := make([]int64, c.Rank()+1)
		for i := range data {
			data[i] = int64(c.Rank())
		}
		out := c.Allgatherv(data)
		if len(out) != 4 {
			t.Errorf("allgatherv %d parts", len(out))
			return
		}
		for r := 0; r < 4; r++ {
			if len(out[r]) != r+1 {
				t.Errorf("part %d has len %d", r, len(out[r]))
			}
			for _, v := range out[r] {
				if v != int64(r) {
					t.Errorf("part %d contains %d", r, v)
				}
			}
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		got := c.AllreduceSum([]int64{1, int64(c.Rank())})
		if got[0] != P {
			t.Errorf("sum of ones = %d", got[0])
		}
		if got[1] != P*(P-1)/2 {
			t.Errorf("sum of ranks = %d", got[1])
		}
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		if got := c.AllreduceMax1(int64(c.Rank())); got != P-1 {
			t.Errorf("max = %d", got)
		}
	})
}

func TestExScanSum(t *testing.T) {
	const P = 7
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		// Rank r contributes r+1; exclusive prefix at rank r is sum_{i<r}(i+1).
		got := c.ExScanSum(int64(c.Rank() + 1))
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got != want {
			t.Errorf("rank %d exscan = %d, want %d", c.Rank(), got, want)
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		out := make([][]int64, P)
		for d := 0; d < P; d++ {
			out[d] = []int64{int64(c.Rank()*100 + d)}
		}
		in := c.Alltoallv(out)
		for s := 0; s < P; s++ {
			want := int64(s*100 + c.Rank())
			if len(in[s]) != 1 || in[s][0] != want {
				t.Errorf("rank %d from %d got %v, want [%d]", c.Rank(), s, in[s], want)
			}
		}
	})
}

func TestAlltoallvEmptyBuffers(t *testing.T) {
	const P = 3
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		out := make([][]int64, P) // all nil
		in := c.Alltoallv(out)
		for s := 0; s < P; s++ {
			if len(in[s]) != 0 {
				t.Errorf("expected empty, got %v", in[s])
			}
		}
	})
}

func TestCollectiveSequenceIndependence(t *testing.T) {
	// Multiple collectives in a row must not cross-contaminate.
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for round := int64(0); round < 20; round++ {
			s := c.AllreduceSum1(round)
			if s != round*4 {
				t.Errorf("round %d: sum %d", round, s)
				return
			}
			c.Barrier()
			b := c.Bcast(int(round)%4, []int64{round * 7})[0]
			if b != round*7 {
				t.Errorf("round %d: bcast %d", round, b)
				return
			}
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []int64{1, 2, 3, 4})
		} else {
			c.Recv(0, 1)
		}
	})
	s := w.TotalStats()
	if s.MessagesSent != 1 || s.WordsSent != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWorldSizeOne(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Barrier()
		if got := c.AllreduceSum1(5); got != 5 {
			t.Errorf("allreduce on single rank = %d", got)
		}
		if got := c.ExScanSum(9); got != 0 {
			t.Errorf("exscan on single rank = %d", got)
		}
		in := c.Alltoallv([][]int64{{1, 2}})
		if len(in[0]) != 2 {
			t.Errorf("self alltoall %v", in)
		}
		parts := c.Allgatherv([]int64{3})
		if len(parts) != 1 || parts[0][0] != 3 {
			t.Errorf("allgatherv %v", parts)
		}
	})
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWorld(0)
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from rank")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestManyRanksStress(t *testing.T) {
	const P = 16
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		// Ring exchange: send to the right, receive from the left, P times.
		token := int64(c.Rank())
		for i := 0; i < P; i++ {
			c.Send((c.Rank()+1)%P, 3, []int64{token})
			token = c.Recv((c.Rank()+P-1)%P, 3)[0]
		}
		// After P hops, each rank has its own token back.
		if token != int64(c.Rank()) {
			t.Errorf("rank %d ended with token %d", c.Rank(), token)
		}
	})
}
