package mpi

import (
	"strings"
	"testing"
)

// Failure-injection tests: misuse of the substrate must fail loudly and
// with a diagnosable message, not hang or corrupt state.

func TestSendOutOfRangePanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
		if !strings.Contains(p.(string), "rank 5") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, 1, nil)
		}
	})
}

func TestRecvOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range source")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(-1, 1)
		}
	})
}

func TestAllreduceLengthMismatchPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic for mismatched allreduce lengths")
		}
		if !strings.Contains(p.(string), "length mismatch") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		vals := make([]int64, 1+c.Rank()) // rank 0: len 1, rank 1: len 2
		c.AllreduceSum(vals)
	})
}

func TestAlltoallvWrongBufferCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong Alltoallv buffer count")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Alltoallv(make([][]int64, 2)) // 2 buffers for 3 ranks
		} else {
			// Other ranks do nothing: rank 0 panics before sending, so no
			// receive can hang.
			_ = c
		}
	})
}

func TestPanicIdentifiesRank(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected propagated panic")
		}
		if !strings.Contains(p.(string), "rank 1") {
			t.Fatalf("panic does not name the failing rank: %v", p)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("injected fault")
		}
	})
}

func TestPoisonUnblocksReceiver(t *testing.T) {
	// A rank blocked in Recv must panic (not hang) when a peer poisons the
	// world before dying.
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected propagated panic")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.PoisonPeers()
			panic("rank 0 dies")
		}
		c.Recv(0, 99) // would block forever without the poison
	})
}
