package mpi

import (
	"fmt"
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

// runBounded runs fn on a fresh world of size p and returns the panic that
// Run re-raises, failing the test if the run hangs for 10s instead.
func runBounded(t *testing.T, p int, fn func(c *Comm)) any {
	t.Helper()
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		NewWorld(p).Run(fn)
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("a receive hung after a peer aborted the world")
		return nil
	}
}

// TestAbortUnblocksReceiver: a rank blocked in Recv must unwind (not hang)
// when a peer aborts the world before dying, and Run re-raises the dying
// rank's panic.
func TestAbortUnblocksReceiver(t *testing.T) {
	p := runBounded(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Abort()
			panic("rank 0 dies")
		}
		c.Recv(0, 99) // would block forever without the abort
	})
	if !strings.Contains(fmt.Sprint(p), "rank 0 dies") {
		t.Fatalf("propagated panic %v, want rank 0's", p)
	}
}

// TestAbortUnblocksReceiveFromAnotherRank: an abort from one rank must
// also end a receive that waits on a different rank. Rank 1 aborts and
// dies while rank 0 waits on rank 1 and rank 2 waits on rank 0.
func TestAbortUnblocksReceiveFromAnotherRank(t *testing.T) {
	p := runBounded(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Recv(1, 99)
		case 1:
			c.Abort()
			panic("rank 1 dies")
		case 2:
			c.Recv(0, 99)
		}
	})
	if !strings.Contains(fmt.Sprint(p), "rank 1 dies") {
		t.Fatalf("propagated panic %v, want rank 1's", p)
	}
}

// TestAbortReraisesDetectingRanksPanic: the rank that detects a fault
// aborts and panics while a lower rank waits on it. The waiting rank
// unwinds silently, so the panic Run re-raises is the fault itself, not
// a secondary failure of the waiter.
func TestAbortReraisesDetectingRanksPanic(t *testing.T) {
	p := runBounded(t, 2, func(c *Comm) {
		if c.Rank() == 1 {
			c.Abort()
			panic("injected fault")
		}
		c.Recv(1, 99)
	})
	if msg := fmt.Sprint(p); !strings.Contains(msg, "injected fault") || !strings.Contains(msg, "rank 1") {
		t.Fatalf("propagated panic %q, want rank 1's injected fault", msg)
	}
}
