package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
	"repro/internal/testutil"
)

// partChecksum hashes a full assignment the way the public Partition
// value does (k, then every block ID), so cross-backend equality here
// implies equal parhip.Partition checksums.
func partChecksum(k int32, p partition.Partition) string {
	h := sha256.New()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(k))
	h.Write(buf[:])
	for _, b := range p {
		binary.LittleEndian.PutUint32(buf[:], uint32(b))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestPartitionCrossBackendIdentical is the satellite acceptance test: a
// full PartitionDistributed run must produce a bit-identical partition
// (same cut, same checksum, same assignment) whether the ranks talk
// through in-process mailboxes or over real loopback TCP connections.
func TestPartitionCrossBackendIdentical(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := gen.PlantedPartition(1500, 12, 9, 0.5, 7)
	const P = 3
	cfg := FastConfig(4, ClassSocial)
	cfg.Seed = 42

	inproc, err := run(P, g, cfg)
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}

	ts, err := transport.Loopback(P, transport.TCPConfig{})
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	trs := make([]transport.Transport, P)
	for i, tr := range ts {
		trs[i] = tr
	}
	ws, err := mpi.JoinWorlds(trs...)
	if err != nil {
		t.Fatalf("JoinWorlds: %v", err)
	}
	// One RunOn per world, concurrently — exactly what P OS processes do.
	results := make([]Result, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			results[i], errs[i] = RunOn(context.Background(), w, g, cfg)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp run, world %d: %v", i, err)
		}
	}
	for i, w := range ws {
		w.Close()
		if i != 0 && results[i].Part != nil {
			t.Errorf("world %d (not hosting rank 0) returned a populated result", i)
		}
	}
	tcp := results[0]
	if tcp.Part == nil {
		t.Fatal("tcp run returned no partition on rank 0's world")
	}

	if tcp.Stats.Cut != inproc.Stats.Cut {
		t.Errorf("cut differs: tcp=%d inproc=%d", tcp.Stats.Cut, inproc.Stats.Cut)
	}
	if got, want := partChecksum(cfg.K, tcp.Part), partChecksum(cfg.K, inproc.Part); got != want {
		t.Errorf("checksum differs: tcp=%s inproc=%s", got, want)
	}
	if len(tcp.Part) != len(inproc.Part) {
		t.Fatalf("assignment length differs: tcp=%d inproc=%d", len(tcp.Part), len(inproc.Part))
	}
	for v := range inproc.Part {
		if tcp.Part[v] != inproc.Part[v] {
			t.Fatalf("assignment diverges at node %d: tcp=%d inproc=%d", v, tcp.Part[v], inproc.Part[v])
		}
	}
	// The networked run must have actually used the wire, and the stats
	// plumbing must have captured it.
	if tcp.Stats.Transport.FramesSent == 0 || tcp.Stats.Transport.BytesSent == 0 {
		t.Errorf("tcp run reported no transport traffic: %+v", tcp.Stats.Transport)
	}
	testutil.WaitNoLeak(t, base, 2)
}

// TestRunOnSurvivesPeerExitAfterFinish closes each world of a loopback TCP
// run the moment its own RunOn returns, as a rank process exits when its
// run is done. A broken link aborts a TCP world at once, so a process that
// finishes first must not fail the others: every RunOn returns nil, and
// rank 0's partition is the in-process one.
func TestRunOnSurvivesPeerExitAfterFinish(t *testing.T) {
	base := runtime.NumGoroutine()
	g, err := gen.ByFamily(gen.FamilyRMAT, 2048, 5)
	if err != nil {
		t.Fatal(err)
	}
	const P = 3
	cfg := FastConfig(4, ClassSocial)
	cfg.Seed = 11
	inproc, err := run(P, g, cfg)
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}
	want := partChecksum(cfg.K, inproc.Part)
	for trial := 0; trial < 20; trial++ {
		ts, err := transport.Loopback(P, transport.TCPConfig{})
		if err != nil {
			t.Fatalf("trial %d: Loopback: %v", trial, err)
		}
		trs := make([]transport.Transport, P)
		for i, tr := range ts {
			trs[i] = tr
		}
		ws, err := mpi.JoinWorlds(trs...)
		if err != nil {
			t.Fatalf("trial %d: JoinWorlds: %v", trial, err)
		}
		results := make([]Result, P)
		errs := make([]error, P)
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w *mpi.World) {
				defer wg.Done()
				defer w.Close()
				results[i], errs[i] = RunOn(context.Background(), w, g, cfg)
			}(i, w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d: world %d: %v", trial, i, err)
			}
		}
		if got := partChecksum(cfg.K, results[0].Part); got != want {
			t.Fatalf("trial %d: partition checksum %s, in-process %s", trial, got, want)
		}
	}
	testutil.WaitNoLeak(t, base, 2)
}

// lossyTCP is one rank's TCP transport that, once armed, loses the next
// frame to rank 0 the way TCP.Send loses a frame whose write fails: the
// frame is dropped and rank 0 is reported down.
type lossyTCP struct {
	*transport.TCP
	h     transport.Handlers
	armed atomic.Bool
}

func (l *lossyTCP) Start(h transport.Handlers) error {
	l.h = h
	return l.TCP.Start(h)
}

func (l *lossyTCP) Send(f transport.Frame) {
	if f.Dst == 0 && l.armed.CompareAndSwap(true, false) {
		l.h.Down(0, errors.New("write to rank 0 failed"))
		return
	}
	l.TCP.Send(f)
}

// TestRunWithFailsWhenFinalShareLost loses rank 1's share of the partition
// on its way to rank 0. No process may report success then: rank 0 lacks a
// share, and ranks 1 and 2 never hear that rank 0 holds theirs.
func TestRunWithFailsWhenFinalShareLost(t *testing.T) {
	base := runtime.NumGoroutine()
	g, _ := gen.PlantedPartition(600, 6, 8, 0.5, 3)
	const P = 3
	ts, err := transport.Loopback(P, transport.TCPConfig{})
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	lossy := &lossyTCP{TCP: ts[1]}
	ws, err := mpi.JoinWorlds(ts[0], lossy, ts[2])
	if err != nil {
		t.Fatalf("JoinWorlds: %v", err)
	}
	fn := func(_ context.Context, d *dgraph.DGraph) ([]int64, Stats, error) {
		if d.Comm.Rank() == 1 {
			lossy.armed.Store(true)
		}
		return make([]int64, d.NTotal()), Stats{}, nil
	}
	errs := make([]error, P)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			_, errs[i] = RunWith(context.Background(), w, g, nil, fn)
		}(i, w)
	}
	wg.Wait()
	for i, w := range ws {
		w.Close()
		if errs[i] == nil {
			t.Errorf("world %d: RunWith succeeded though rank 1's share was lost", i)
		}
	}
	testutil.WaitNoLeak(t, base, 2)
}
