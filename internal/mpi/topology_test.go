package mpi

import (
	"strings"
	"testing"
)

// ringTopology returns each rank's neighbors on a ring of size P (P >= 3:
// distinct predecessor and successor).
func ringTopology(rank, size int) []int {
	a := (rank + size - 1) % size
	b := (rank + 1) % size
	if a > b {
		a, b = b, a
	}
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

func TestNeighborAlltoallvRing(t *testing.T) {
	const P = 5
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		topo := NewTopology(c, ringTopology(c.Rank(), P))
		out := make([][]int64, topo.Degree())
		for i, r := range topo.Neighbors() {
			out[i] = []int64{int64(c.Rank()*100 + r)}
		}
		got := map[int]int64{}
		topo.NeighborAlltoallv(out, func(i int, data []int64) {
			if len(data) != 1 {
				t.Errorf("rank %d: neighbor %d sent %d words", c.Rank(), topo.Neighbors()[i], len(data))
				return
			}
			got[topo.Neighbors()[i]] = data[0]
		})
		for _, r := range topo.Neighbors() {
			want := int64(r*100 + c.Rank())
			if got[r] != want {
				t.Errorf("rank %d: from %d got %d, want %d", c.Rank(), r, got[r], want)
			}
		}
	})
}

func TestNeighborAlltoallvSendsNothingToNonAdjacent(t *testing.T) {
	const P = 6
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		topo := NewTopology(c, ringTopology(c.Rank(), P))
		out := make([][]int64, topo.Degree())
		for i := range out {
			out[i] = []int64{1, 2, 3}
		}
		for s := 0; s < 4; s++ {
			topo.NeighborAlltoallv(out, func(int, []int64) {})
		}
	})
	for src := 0; src < P; src++ {
		adjacent := map[int]bool{}
		for _, r := range ringTopology(src, P) {
			adjacent[r] = true
		}
		for dst := 0; dst < P; dst++ {
			if dst == src || adjacent[dst] {
				continue
			}
			// The topology handshake inside NewTopology is a dense exchange;
			// everything after it must stay on the ring. 1 message = the
			// handshake itself.
			if n := w.PairMessages(src, dst); n > 1 {
				t.Errorf("non-adjacent pair %d->%d saw %d messages (want only the 1 handshake)", src, dst, n)
			}
		}
	}
}

func TestNewTopologyAsymmetricPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic for asymmetric topology")
		}
		if !strings.Contains(p.(string), "asymmetric") && !strings.Contains(p.(string), "poisoned") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		// Rank 0 lists 1; rank 1 lists nobody: asymmetric.
		var nbrs []int
		if c.Rank() == 0 {
			nbrs = []int{1}
		}
		NewTopology(c, nbrs)
	})
}

func TestAlltoallvFuncMatchesAlltoallv(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		out := make([][]int64, P)
		for r := 0; r < P; r++ {
			for i := 0; i <= c.Rank(); i++ {
				out[r] = append(out[r], int64(c.Rank()*1000+r*10+i))
			}
		}
		want := c.Alltoallv(out)
		got := make([][]int64, P)
		c.AlltoallvFunc(out, func(src int, data []int64) {
			got[src] = append([]int64(nil), data...) // copy: data is pooled
		})
		for r := 0; r < P; r++ {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("rank %d: src %d length %d vs %d", c.Rank(), r, len(got[r]), len(want[r]))
			}
			for i := range got[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("rank %d: src %d slot %d: %d vs %d", c.Rank(), r, i, got[r][i], want[r][i])
				}
			}
		}
	})
}

func TestSharderExchange(t *testing.T) {
	const P = 4
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		s := NewSharder(c)
		for round := 0; round < 3; round++ {
			// Every rank sends (rank, round) to every other rank, twice.
			for dst := 0; dst < P; dst++ {
				s.Add(dst, int64(c.Rank()), int64(round))
				s.Add(dst, int64(c.Rank()), int64(round))
			}
			seen := 0
			s.Exchange(func(src int, data []int64) {
				if len(data) != 4 {
					t.Errorf("round %d: src %d sent %d words, want 4", round, src, len(data))
					return
				}
				if data[0] != int64(src) || data[1] != int64(round) {
					t.Errorf("round %d: bad payload from %d: %v", round, src, data)
				}
				seen++
			})
			if seen != P {
				t.Errorf("round %d: got %d sources, want %d", round, seen, P)
			}
			for dst := 0; dst < P; dst++ {
				if len(s.out[dst]) != 0 {
					t.Errorf("round %d: buffer for %d not reset", round, dst)
				}
			}
		}
	})
}

func TestStatsClassBreakdown(t *testing.T) {
	const P = 3
	w := NewWorld(P)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []int64{1, 2, 3})
		}
		if c.Rank() == 1 {
			c.Recv(0, 7)
		}
		c.AllreduceSum1(1)
		topo := NewTopology(c, ringTopology(c.Rank(), P))
		out := make([][]int64, topo.Degree())
		for i := range out {
			out[i] = []int64{9}
		}
		topo.NeighborAlltoallv(out, func(int, []int64) {})
	})
	s := w.TotalStats()
	if s.P2PMessages != 1 || s.P2PWords != 3 {
		t.Errorf("p2p: got %d msgs / %d words, want 1/3", s.P2PMessages, s.P2PWords)
	}
	if s.CollMessages == 0 {
		t.Error("collective counters did not move")
	}
	if s.NeighborExchanges != P {
		t.Errorf("neighbor exchanges: got %d, want %d", s.NeighborExchanges, P)
	}
	// Ring of 3: every rank has 2 neighbors, 1 word each.
	if s.NeighborMessages != 2*P || s.NeighborWords != 2*P {
		t.Errorf("neighbor traffic: got %d msgs / %d words, want %d/%d",
			s.NeighborMessages, s.NeighborWords, 2*P, 2*P)
	}
	if s.MessagesSent != s.P2PMessages+s.CollMessages+s.NeighborMessages {
		t.Error("MessagesSent is not the sum of the class counters")
	}
	if s.BytesSent() != s.WordsSent*8 {
		t.Error("BytesSent != 8*WordsSent")
	}
}
