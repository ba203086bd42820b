package mpi

import (
	"sync/atomic"
	"testing"

	"repro/internal/mpi/transport"
)

// ringNeighbors returns each rank's neighbors on a ring of size P (P >= 3:
// distinct predecessor and successor).
func ringNeighbors(rank, size int) []int {
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
		nbrs := ringNeighbors(c.Rank(), P)
		out := make([][]int64, len(nbrs))
		for i, r := range nbrs {
			out[i] = []int64{int64(c.Rank()*100 + r)}
		}
		got := map[int]int64{}
		c.NeighborAlltoallv(nbrs, out, func(i int, data []int64) {
			if len(data) != 1 {
				t.Errorf("rank %d: neighbor %d sent %d words", c.Rank(), nbrs[i], len(data))
				return
			}
			got[nbrs[i]] = data[0]
		})
		for _, r := range nbrs {
			want := int64(r*100 + c.Rank())
			if got[r] != want {
				t.Errorf("rank %d: from %d got %d, want %d", c.Rank(), r, got[r], want)
			}
		}
	})
}

// pairCounter is an in-process transport that counts the frames sent from
// each rank to each other rank.
type pairCounter struct {
	transport.Transport
	frames []atomic.Int64 // at [src*size+dst]
}

func newPairCounter(size int) *pairCounter {
	return &pairCounter{Transport: transport.NewInproc(size), frames: make([]atomic.Int64, size*size)}
}

func (p *pairCounter) Send(f transport.Frame) {
	p.frames[f.Src*p.Size()+f.Dst].Add(1)
	p.Transport.Send(f)
}

func (p *pairCounter) count(src, dst int) int64 { return p.frames[src*p.Size()+dst].Load() }

func TestNeighborAlltoallvSendsNothingToNonAdjacent(t *testing.T) {
	const P = 6
	tr := newPairCounter(P)
	w, err := NewWorldOn(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Run(func(c *Comm) {
		nbrs := ringNeighbors(c.Rank(), P)
		out := make([][]int64, len(nbrs))
		for i := range out {
			out[i] = []int64{1, 2, 3}
		}
		for s := 0; s < 4; s++ {
			c.NeighborAlltoallv(nbrs, out, func(int, []int64) {})
		}
	})
	for src := 0; src < P; src++ {
		adjacent := map[int]bool{}
		for _, r := range ringNeighbors(src, P) {
			adjacent[r] = true
		}
		for dst := 0; dst < P; dst++ {
			n := tr.count(src, dst)
			if dst != src && !adjacent[dst] && n != 0 {
				t.Errorf("non-adjacent pair %d->%d saw %d frames, want 0", src, dst, n)
			}
			if adjacent[dst] && n != 4 {
				t.Errorf("adjacent pair %d->%d saw %d frames, want 4", src, dst, n)
			}
		}
	}
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
		nbrs := ringNeighbors(c.Rank(), P)
		out := make([][]int64, len(nbrs))
		for i := range out {
			out[i] = []int64{9}
		}
		c.NeighborAlltoallv(nbrs, out, func(int, []int64) {})
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
