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
		c.AlltoallvFunc(func(dst int, buf []int64) []int64 {
			return append(buf, out[dst]...)
		}, func(src int, data []int64) { got[src] = data })
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

// alltoallvOwnership runs AlltoallvFunc on every rank of ws and checks the
// ownership rule: each payload is built into the one reused scratch and
// still arrives intact, the own payload is the builder's slice itself, and
// a payload that recv keeps is its own: two later exchanges, built in the
// same scratch, leave it intact.
func alltoallvOwnership(t *testing.T, ws []*World) {
	t.Helper()
	RunAll(ws, func(c *Comm) {
		P, me := c.Size(), c.Rank()
		exchange := func(round int) [][]int64 {
			kept := make([][]int64, P)
			var prev []int64
			var own *int64
			c.AlltoallvFunc(func(dst int, scratch []int64) []int64 {
				if len(scratch) != 0 {
					t.Errorf("rank %d: scratch for %d holds %d words", me, dst, len(scratch))
				}
				if prev != nil && (cap(scratch) == 0 || &scratch[:1][0] != &prev[0]) {
					t.Errorf("rank %d: scratch for %d is not the previous payload's buffer", me, dst)
				}
				// Payload lengths differ per destination, so a later build
				// overwrites an earlier one's words if it was not copied.
				for i := 0; i < 3+dst; i++ {
					scratch = append(scratch, payloadWord(me, dst, round, i))
				}
				prev = scratch
				if dst == me {
					own = &scratch[0]
				}
				return scratch
			}, func(src int, data []int64) {
				if src == me && &data[0] != own {
					t.Errorf("rank %d: own payload was copied", me)
				}
				kept[src] = data
			})
			return kept
		}
		check := func(kept [][]int64, round int, when string) {
			for src, data := range kept {
				if len(data) != 3+me {
					t.Errorf("rank %d %s: round %d payload from %d has %d words, want %d",
						me, when, round, src, len(data), 3+me)
					continue
				}
				for i, v := range data {
					if want := payloadWord(src, me, round, i); v != want {
						t.Errorf("rank %d %s: round %d payload from %d word %d = %d, want %d",
							me, when, round, src, i, v, want)
						break
					}
				}
			}
		}
		first := exchange(0)
		check(first, 0, "on arrival")
		for round := 1; round <= 2; round++ {
			check(exchange(round), round, "on arrival")
		}
		check(first, 0, "after two more exchanges")
	})
}

func TestAlltoallvFuncOwnership(t *testing.T) {
	const P = 3
	t.Run("inproc", func(t *testing.T) {
		alltoallvOwnership(t, []*World{NewWorld(P)})
	})
	t.Run("tcp", func(t *testing.T) {
		ws := tcpWorlds(t, P, transport.TCPConfig{})
		defer closeWorlds(ws)
		alltoallvOwnership(t, ws)
		for _, w := range ws {
			if err := w.Err(); err != nil {
				t.Fatalf("world error: %v", err)
			}
		}
	})
}

// neighborRound runs one ring NeighborAlltoallv in which rank src sends
// dst the words payloadWord(src, dst, round, 0..1+round), built in the
// reused buffers out. Right after the call the sender overwrites out, as
// the halo plan refills its staging buffers every superstep; a barrier
// then makes every overwrite happen before any receiver reads. It returns
// what each neighbour sent, as handed to recv.
func neighborRound(c *Comm, out [][]int64, round int) [][]int64 {
	nbrs := ringNeighbors(c.Rank(), c.Size())
	for i, r := range nbrs {
		out[i] = out[i][:0]
		for j := 0; j < 2+round; j++ {
			out[i] = append(out[i], payloadWord(c.Rank(), r, round, j))
		}
	}
	kept := make([][]int64, len(nbrs))
	c.NeighborAlltoallv(nbrs, out, func(i int, data []int64) { kept[i] = data })
	for i := range out {
		for j := range out[i] {
			out[i][j] = -1
		}
	}
	c.Barrier()
	return kept
}

// payloadWord is word i of what rank src sends rank dst in exchange round.
func payloadWord(src, dst, round, i int) int64 {
	return int64(src*1_000_000 + dst*10_000 + round*1_000 + i)
}

// checkNeighborRound reports a payload in kept that is not what round sent.
func checkNeighborRound(t *testing.T, c *Comm, kept [][]int64, round int, when string) {
	t.Helper()
	for i, r := range ringNeighbors(c.Rank(), c.Size()) {
		data := kept[i]
		if len(data) != 2+round {
			t.Errorf("rank %d %s: round %d payload from %d has %d words, want %d",
				c.Rank(), when, round, r, len(data), 2+round)
			continue
		}
		for j, v := range data {
			if want := payloadWord(r, c.Rank(), round, j); v != want {
				t.Errorf("rank %d %s: round %d payload from %d word %d = %d, want %d",
					c.Rank(), when, round, r, j, v, want)
				break
			}
		}
	}
}

// TestSenderReusesPayloadAtOnce: on the in-process transport a sender may
// overwrite its slice as soon as Send or NeighborAlltoallv returns, and
// the receiver still gets what was sent.
func TestSenderReusesPayloadAtOnce(t *testing.T) {
	const P = 3
	NewWorld(P).Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []int64{7, 8, 9}
			c.Send(1, 5, buf)
			buf[0], buf[1], buf[2] = -1, -1, -1
		}
		c.Barrier()
		if c.Rank() == 1 {
			if got := c.Recv(0, 5); len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
				t.Errorf("Send: receiver got %v after the sender overwrote its slice, want [7 8 9]", got)
			}
		}
		out := make([][]int64, len(ringNeighbors(c.Rank(), P)))
		for round := 0; round < 3; round++ {
			checkNeighborRound(t, c, neighborRound(c, out, round), round, "on arrival")
		}
	})
}

// TestNeighborAlltoallvReceiverKeepsData: a NeighborAlltoallv receiver owns
// the data it is handed, so data kept past the callback reads intact after
// two more exchanges.
func TestNeighborAlltoallvReceiverKeepsData(t *testing.T) {
	const P = 3
	NewWorld(P).Run(func(c *Comm) {
		out := make([][]int64, len(ringNeighbors(c.Rank(), P)))
		first := neighborRound(c, out, 0)
		neighborRound(c, out, 1)
		neighborRound(c, out, 2)
		checkNeighborRound(t, c, first, 0, "after two more exchanges")
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
