package mpi

import (
	"strings"
	"testing"
	"time"
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

// TestPoisonUnblocksReceiveFromAnotherRank: poison from one rank must also
// fail a receive that waits on a different rank. Rank 1 poisons and dies;
// rank 0 unwinds on that poison without poisoning anyone, so rank 2's
// receive from rank 0 would otherwise block forever.
func TestPoisonUnblocksReceiveFromAnotherRank(t *testing.T) {
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		NewWorld(3).Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Recv(1, 99)
			case 1:
				c.PoisonPeers()
				panic("rank 1 dies")
			case 2:
				c.Recv(0, 99)
			}
		})
	}()
	select {
	case p := <-done:
		if p == nil {
			t.Fatal("expected propagated panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receive from a rank that unwound on poison hung")
	}
}
