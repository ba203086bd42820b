package dgraph

import (
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/rng"
)

// TestPropertyPlanExchangeMatchesDenseOracleTCP is the cross-backend twin
// of TestPropertyPlanExchangeMatchesDenseOracle: the same 50 random
// (graph, rank count) instances run over a real loopback TCP world, and
// the plan-based SyncGhosts/PushGhosts must stay bit-identical to the
// dense oracles — serialization through the wire must not perturb a
// single label.
func TestPropertyPlanExchangeMatchesDenseOracleTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 50 networked worlds in -short mode")
	}
	for trial := 0; trial < 50; trial++ {
		seed := uint64(trial + 1)
		P := trial%7 + 1
		g := randomGraph(seed)
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
		var mu sync.Mutex
		failed := false
		mpi.RunAll(ws, func(c *mpi.Comm) {
			d := FromGraph(c, g)
			r := rng.New(seed).Split(uint64(c.Rank() + 101))

			valsPlan := make([]int64, d.NTotal())
			valsDense := make([]int64, d.NTotal())
			for v := int32(0); v < d.NLocal(); v++ {
				x := r.Int64n(1 << 30)
				valsPlan[v] = x
				valsDense[v] = x
			}
			d.SyncGhosts(valsPlan)
			d.syncGhostsDense(valsDense)
			for v := range valsPlan {
				if valsPlan[v] != valsDense[v] {
					mu.Lock()
					failed = true
					mu.Unlock()
					return
				}
			}

			var changed []int32
			for v := int32(0); v < d.NLocal(); v++ {
				if d.IsInterface(v) && r.Intn(3) == 0 {
					x := r.Int64n(1 << 30)
					valsPlan[v] = x
					valsDense[v] = x
					changed = append(changed, v)
				}
			}
			d.PushGhosts(valsPlan, changed)
			d.pushGhostsDense(valsDense, changed)
			for v := range valsPlan {
				if valsPlan[v] != valsDense[v] {
					mu.Lock()
					failed = true
					mu.Unlock()
					return
				}
			}
		})
		// Check every world before closing any: a closed world breaks its
		// links, which the others report as a lost peer.
		for i, w := range ws {
			if err := w.Err(); err != nil {
				t.Fatalf("trial %d: world %d transport error: %v", trial, i, err)
			}
		}
		for _, w := range ws {
			w.Close()
		}
		if failed {
			t.Fatalf("trial %d (seed %d, P=%d): plan exchange over tcp diverged from dense oracle", trial, seed, P)
		}
	}
}
