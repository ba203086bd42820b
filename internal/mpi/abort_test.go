package mpi

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// Aborted reports whether Abort has been called.
func (w *World) Aborted() bool { return w.aborted.Load() }

// Aborted reports whether the world has been aborted.
func (c *Comm) Aborted() bool { return c.world.aborted.Load() }

// TestAbortWakesBlockedReceiver: a rank blocked in Recv with no sender must
// unwind when the world is aborted, and Run must return without re-raising.
func TestAbortWakesBlockedReceiver(t *testing.T) {
	base := runtime.NumGoroutine()
	w := NewWorld(2)
	var rank0Done atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.Abort()
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 7) // nobody ever sends: only Abort can free this rank
			t.Error("Recv returned on an aborted world")
			return
		}
		rank0Done.Store(true)
	})
	if !w.Aborted() {
		t.Fatal("world not marked aborted")
	}
	if !rank0Done.Load() {
		t.Fatal("unblocked rank did not finish")
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestAbortUnwindsCollective: ranks stuck in a collective (barrier missing
// one participant) all unwind on abort.
func TestAbortUnwindsCollective(t *testing.T) {
	w := NewWorld(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(func(c *Comm) {
			if c.Rank() == 3 {
				// Rank 3 aborts instead of entering the barrier, stranding
				// the other three.
				time.Sleep(10 * time.Millisecond)
				w.Abort()
				return
			}
			c.Barrier()
			t.Error("barrier completed with a missing rank")
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("aborted world never unwound")
	}
}

// TestCheckAbortUnwinds: a computing rank that polls CheckAbort unwinds
// without touching any mailbox.
func TestCheckAbortUnwinds(t *testing.T) {
	w := NewWorld(1)
	w.Abort()
	reached := false
	w.Run(func(c *Comm) {
		if !c.Aborted() {
			t.Error("Aborted() false after Abort")
		}
		c.CheckAbort()
		reached = true
	})
	if reached {
		t.Fatal("CheckAbort did not unwind on an aborted world")
	}
}

// TestCollectiveIsAbortPoint: entering a collective unwinds an aborted
// rank even where the collective receives nothing — a one-rank world —
// so a cancelled pipeline stops at its next collective at any P.
func TestCollectiveIsAbortPoint(t *testing.T) {
	w := NewWorld(1)
	w.Abort()
	reached := false
	w.Run(func(c *Comm) {
		c.AllreduceSum1(1)
		reached = true
	})
	if reached {
		t.Fatal("a collective ran to completion on an aborted world")
	}
}

// TestWatchContextAbortsOnCancel: cancelling the watched context aborts the
// world; stop() releases the watcher without leaking it.
func TestWatchContextAbortsOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorld(2)
	stop := w.WatchContext(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 3) // freed only by the context watcher
			t.Error("Recv survived context cancellation")
		}
	})
	stop()
	if !w.Aborted() {
		t.Fatal("cancelled context did not abort the world")
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestWatchContextStopReleasesWatcher: stopping the watch before any
// cancellation leaves the world un-aborted and leaks nothing.
func TestWatchContextStopReleasesWatcher(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorld(1)
	stop := w.WatchContext(ctx)
	w.Run(func(c *Comm) { c.Barrier() })
	stop()
	if w.Aborted() {
		t.Fatal("world aborted without cancellation")
	}
	cancel() // after stop: must not abort
	time.Sleep(10 * time.Millisecond)
	if w.Aborted() {
		t.Fatal("stopped watcher still aborted the world")
	}
	testutil.WaitNoLeak(t, base, 1)
}

// TestAbortIdempotent: repeated aborts are safe.
func TestAbortIdempotent(t *testing.T) {
	w := NewWorld(2)
	w.Abort()
	w.Abort()
	w.Run(func(c *Comm) { c.CheckAbort() })
	if !w.Aborted() {
		t.Fatal("not aborted")
	}
}
