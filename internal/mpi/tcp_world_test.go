package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/testutil"
)

// tcpWorlds brings up a P-rank world over loopback TCP, one World per
// rank, as P OS processes would.
func tcpWorlds(t *testing.T, p int, cfg transport.TCPConfig) []*World {
	t.Helper()
	ts, err := transport.Loopback(p, cfg)
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	trs := make([]transport.Transport, p)
	for i, tr := range ts {
		trs[i] = tr
	}
	ws, err := JoinWorlds(trs...)
	if err != nil {
		t.Fatalf("JoinWorlds: %v", err)
	}
	return ws
}

func closeWorlds(ws []*World) {
	for _, w := range ws {
		w.Close()
	}
}

// TestTCPWorldCollectives runs the full collective vocabulary over a real
// networked world and checks the results every rank computes are the ones
// the in-process world produces.
func TestTCPWorldCollectives(t *testing.T) {
	base := runtime.NumGoroutine()
	const P = 3
	ws := tcpWorlds(t, P, transport.TCPConfig{})

	var mu sync.Mutex
	got := map[int][]int64{}
	RunAll(ws, func(c *Comm) {
		r := int64(c.Rank())
		sum := c.AllreduceSum1(r + 1)
		max := c.AllreduceMax1(r)
		scan := c.ExScanSum(r + 1)
		bcast := c.Bcast(1, []int64{77})[0]
		c.Barrier()
		// Point-to-point ring: send to the next rank, receive from the
		// previous one.
		c.Send((c.Rank()+1)%P, 5, []int64{r * 10})
		ring := c.Recv((c.Rank()+P-1)%P, 5)[0]
		// Sparse all-to-all with every pair populated.
		out := make([][]int64, P)
		for d := 0; d < P; d++ {
			out[d] = []int64{r*100 + int64(d)}
		}
		in := c.Alltoallv(out)
		var diag int64
		for s := range in {
			diag += in[s][0]
		}
		mu.Lock()
		got[c.Rank()] = []int64{sum, max, scan, bcast, ring, diag}
		mu.Unlock()
	})
	for _, w := range ws {
		if err := w.Err(); err != nil {
			t.Fatalf("world error: %v", err)
		}
	}
	closeWorlds(ws)

	// The same program on the in-process world is the oracle.
	want := map[int][]int64{}
	NewWorld(P).Run(func(c *Comm) {
		r := int64(c.Rank())
		sum := c.AllreduceSum1(r + 1)
		max := c.AllreduceMax1(r)
		scan := c.ExScanSum(r + 1)
		bcast := c.Bcast(1, []int64{77})[0]
		c.Barrier()
		c.Send((c.Rank()+1)%P, 5, []int64{r * 10})
		ring := c.Recv((c.Rank()+P-1)%P, 5)[0]
		out := make([][]int64, P)
		for d := 0; d < P; d++ {
			out[d] = []int64{r*100 + int64(d)}
		}
		in := c.Alltoallv(out)
		var diag int64
		for s := range in {
			diag += in[s][0]
		}
		mu.Lock()
		want[c.Rank()] = []int64{sum, max, scan, bcast, ring, diag}
		mu.Unlock()
	})
	for r := 0; r < P; r++ {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: got %v want %v", r, got[r], want[r])
		}
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Errorf("rank %d result %d: tcp=%d inproc=%d", r, i, got[r][i], want[r][i])
			}
		}
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestTCPWorldSeverAbortsAllRanks is the acceptance-criteria failure
// drill: severing one rank's connectivity mid-run must abort every rank
// within the heartbeat timeout, leaking no goroutines.
func TestTCPWorldSeverAbortsAllRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	const P = 3
	cfg := transport.TCPConfig{HeartbeatTimeout: 300 * time.Millisecond}
	ts, err := transport.Loopback(P, cfg)
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	trs := make([]transport.Transport, P)
	for i, tr := range ts {
		trs[i] = tr
	}
	ws, err := JoinWorlds(trs...)
	if err != nil {
		t.Fatalf("JoinWorlds: %v", err)
	}

	start := time.Now()
	RunAll(ws, func(c *Comm) {
		// Superstep 0 completes everywhere; then rank 0's process loses
		// rank 1 and every rank must unwind instead of hanging in the
		// barrier loop.
		c.Barrier()
		if c.Rank() == 0 {
			ts[0].Sever(1)
		}
		for i := 0; i < 1000; i++ {
			c.Barrier()
			c.CheckAbort()
		}
	})
	elapsed := time.Since(start)

	aborted := 0
	for r, w := range ws {
		if w.Aborted() {
			aborted++
		}
		// Every world unwinds only through its own abort, which on this
		// program is always transport-initiated — so Err must be set
		// everywhere (rank 2 learns via abort gossip or rank 1's silence).
		if err := w.Err(); err == nil {
			t.Errorf("world %d: no transport error after sever", r)
		}
	}
	if aborted != P {
		t.Errorf("%d of %d worlds aborted after sever", aborted, P)
	}
	// The abort must land within a few heartbeat timeouts, not after the
	// write deadline or a hang.
	if elapsed > 10*cfg.HeartbeatTimeout {
		t.Errorf("world-wide abort took %v; want within a few multiples of the %v heartbeat timeout",
			elapsed, cfg.HeartbeatTimeout)
	}
	closeWorlds(ws)
	testutil.WaitNoLeak(t, base, 2)
}

// TestTCPWorldRemoteAbort checks the cooperative abort (context
// cancellation path) crosses process boundaries: one world aborting takes
// the others with it, reported as ErrPeerAborted.
func TestTCPWorldRemoteAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	const P = 2
	ws := tcpWorlds(t, P, transport.TCPConfig{})
	RunAll(ws, func(c *Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			// Simulates WatchContext firing in rank 0's process only.
			ws[0].Abort()
		}
		for i := 0; i < 1000; i++ {
			c.Barrier()
			c.CheckAbort()
		}
	})
	if !ws[1].Aborted() {
		t.Error("rank 1's world did not abort after rank 0's")
	}
	if err := ws[1].Err(); !errors.Is(err, transport.ErrPeerAborted) {
		t.Errorf("rank 1 world error = %v, want ErrPeerAborted", err)
	}
	closeWorlds(ws)
	testutil.WaitNoLeak(t, base, 2)
}

// TestTCPWorldAbortCrossesProcesses: a rank that detects a fault aborts
// and panics. Its own world re-raises the fault; the other process's
// receiver unwinds without a panic and reports the remote abort.
func TestTCPWorldAbortCrossesProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	const P = 2
	ws := tcpWorlds(t, P, transport.TCPConfig{})
	panics := make([]any, P)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			w.Run(func(c *Comm) {
				if c.Rank() == 0 {
					c.Abort()
					panic("injected fault")
				}
				c.Recv(0, 99) // never sent: must unwind via the abort, not hang
			})
		}(i, w)
	}
	wg.Wait()
	if !strings.Contains(fmt.Sprint(panics[0]), "injected fault") {
		t.Errorf("world 0 re-raised %v, want the injected fault", panics[0])
	}
	if panics[1] != nil {
		t.Errorf("world 1's Run panicked: %v", panics[1])
	}
	if err := ws[1].Err(); !errors.Is(err, transport.ErrPeerAborted) {
		t.Errorf("world 1 error = %v, want ErrPeerAborted", err)
	}
	closeWorlds(ws)
	testutil.WaitNoLeak(t, base, 2)
}

// TestTCPWorldAbortKeepsLocalCause: a world that aborts itself keeps the
// local cause. The peer's abort comes back as an echo, which must not be
// recorded as a transport failure of the world that started it.
func TestTCPWorldAbortKeepsLocalCause(t *testing.T) {
	base := runtime.NumGoroutine()
	ws := tcpWorlds(t, 2, transport.TCPConfig{})
	ws[0].Abort()
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(ws[1].Err(), transport.ErrPeerAborted) {
		if time.Now().After(deadline) {
			t.Fatalf("world 1 error = %v after 5s, want ErrPeerAborted", ws[1].Err())
		}
		time.Sleep(time.Millisecond)
	}
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if err := ws[0].Err(); err != nil {
			t.Fatalf("world 0 aborted itself but reports %v", err)
		}
	}
	closeWorlds(ws)
	testutil.WaitNoLeak(t, base, 2)
}

// TestTCPWorldStats spot-checks the transport counter plumbing at the
// world level.
func TestTCPWorldStats(t *testing.T) {
	const P = 2
	ws := tcpWorlds(t, P, transport.TCPConfig{})
	RunAll(ws, func(c *Comm) {
		c.Barrier()
		if ws[c.Rank()].TransportStats().FramesSent == 0 {
			t.Errorf("rank %d: zero transport frames after a barrier", c.Rank())
		}
	})
	ts := ws[0].TransportStats()
	if ts.FramesSent == 0 || ts.BytesSent == 0 {
		t.Errorf("world 0 transport stats empty: %+v", ts)
	}
	closeWorlds(ws)
}
