package sclp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// TestClusterEvaluatesOncePerRound: clustering is one sweep per phase, so a
// rank evaluates each of its nodes exactly once per round it runs, for any
// rank count.
func TestClusterEvaluatesOncePerRound(t *testing.T) {
	const phases = 4
	graphs := []struct {
		name string
		g    *graph.Graph
		u    int64
	}{
		{"kernel", testutil.KernelGraph(rng.New(1), 1), 40},
		{"hub", testutil.HubMesh(3800, 128, 80, 2), 300},
	}
	for _, gc := range graphs {
		for _, P := range []int{1, 2, 4} {
			mpi.NewWorld(P).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, gc.g)
				var st ParStats
				ParCluster(d, ParClusterConfig{U: gc.u, Iterations: 3, DegreeOrder: true,
					PhasesPerRound: phases, Seed: 3, Stats: &st})
				rounds := st.Supersteps / phases
				if rounds < 1 || st.Supersteps%phases != 0 {
					t.Errorf("%s P=%d rank %d: %d supersteps is not a whole number of %d-phase rounds",
						gc.name, P, c.Rank(), st.Supersteps, phases)
				}
				if want := rounds * int64(d.NLocal()); st.Evaluated != want {
					t.Errorf("%s P=%d rank %d: %d evaluations in %d rounds over %d local nodes, want %d",
						gc.name, P, c.Rank(), st.Evaluated, rounds, d.NLocal(), want)
				}
			})
		}
	}
}

// refineRound is what refineRoundHook saw at the start of one round on one
// rank: the visit list, the partition (local and ghost entries) and the
// weight this rank's local nodes give each block.
type refineRound struct {
	visit   []int32
	part    []int64
	contrib []int64
}

// TestRefineVisitsExactlyTheActiveSet recomputes every round's visit list
// from the round-start snapshots of part alone: round 0 and any round that
// starts with an overloaded block visit every local node; any other round
// visits the local nodes that changed block last round or have a neighbour —
// local or ghost — that did. A missed ghost activation, a visit list that
// depends on arrival order, or a forgotten overload round shows as a
// mismatch.
func TestRefineVisitsExactlyTheActiveSet(t *testing.T) {
	const k = 3
	g := gen.DelaunayLike(900, 8)
	n := int64(g.NumNodes())
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	starts := []struct {
		name   string
		phases int
		block  func(gv int64) int64
	}{
		{"balanced", 8, func(gv int64) int64 { return gv % k }},
		// The first half piles onto block 0, and with one phase per round
		// several ranks cannot drain it in one round: overloaded rounds.
		{"skewed", 1, func(gv int64) int64 {
			if gv < n/2 {
				return 0
			}
			return gv % k
		}},
	}
	var partial, viaGhostOnly, overloadRounds int
	for _, start := range starts {
		for _, P := range []int{1, 2, 3} {
			for _, withPrev := range []bool{false, true} {
				label := fmt.Sprintf("%s P=%d prev=%v", start.name, P, withPrev)
				seen := make([][]refineRound, P)
				graphs := make([]*dgraph.DGraph, P)
				stats := make([]ParStats, P)
				refineRoundHook = func(d *dgraph.DGraph, round int, visit []int32, part []int64) {
					contrib := make([]int64, k)
					for v := int32(0); v < d.NLocal(); v++ {
						contrib[part[v]] += d.NW[v]
					}
					rank := d.Comm.Rank()
					if round != len(seen[rank]) {
						t.Errorf("%s rank %d: hook saw round %d after %d rounds", label, rank, round, len(seen[rank]))
					}
					seen[rank] = append(seen[rank], refineRound{slices.Clone(visit), slices.Clone(part), contrib})
				}
				mpi.NewWorld(P).Run(func(c *mpi.Comm) {
					d := dgraph.FromGraph(c, g)
					graphs[c.Rank()] = d
					part := make([]int64, d.NTotal())
					var prev []int64
					if withPrev {
						prev = make([]int64, d.NTotal())
					}
					for v := range part {
						part[v] = start.block(d.ToGlobal(int32(v)))
						if withPrev {
							prev[v] = (d.ToGlobal(int32(v)) / 7) % k
						}
					}
					ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 6,
						PhasesPerRound: start.phases, Seed: 11, Prev: prev, Stats: &stats[c.Rank()]})
				})
				refineRoundHook = nil

				for rank, rounds := range seen {
					if len(rounds) != len(seen[0]) || len(rounds) < 2 {
						t.Fatalf("%s: rank %d ran %d rounds, rank 0 %d (want the same, and more than one)",
							label, rank, len(rounds), len(seen[0]))
					}
				}
				for round := range seen[0] {
					overloaded := false
					for b := 0; b < k; b++ {
						var w int64
						for rank := range seen {
							w += seen[rank][round].contrib[b]
						}
						overloaded = overloaded || w > lmax
					}
					if overloaded && round > 0 {
						overloadRounds++
					}
					for rank, d := range graphs {
						now := seen[rank][round]
						var want []int32
						for v := int32(0); v < d.NLocal(); v++ {
							active := round == 0 || overloaded
							if !active {
								before := seen[rank][round-1].part
								active = now.part[v] != before[v]
								ghostOnly := !active
								for _, u := range d.Neighbors(v) {
									if now.part[u] != before[u] {
										active = true
										ghostOnly = ghostOnly && d.IsGhost(u)
									}
								}
								if active && ghostOnly {
									viaGhostOnly++
								}
							}
							if active {
								want = append(want, v)
							}
						}
						if !slices.Equal(now.visit, want) {
							t.Fatalf("%s rank %d round %d (overloaded %v): visited %d nodes %v..., the snapshots say %d %v...",
								label, rank, round, overloaded, len(now.visit), head(now.visit), len(want), head(want))
						}
						if len(want) > 0 && len(want) < int(d.NLocal()) {
							partial++
						}
					}
				}
				// The sweep evaluates every visited node once and nothing else.
				for rank, rounds := range seen {
					var visits int64
					for _, rd := range rounds {
						visits += int64(len(rd.visit))
					}
					if stats[rank].Evaluated != visits {
						t.Errorf("%s rank %d: %d evaluations, the visit lists hold %d nodes",
							label, rank, stats[rank].Evaluated, visits)
					}
				}
			}
		}
	}
	// The comparison must have had something to compare.
	if partial == 0 || viaGhostOnly == 0 || overloadRounds == 0 {
		t.Errorf("vacuous: %d partial rounds, %d nodes activated by ghosts alone, %d overloaded rounds after the first",
			partial, viaGhostOnly, overloadRounds)
	}
}

func head(xs []int32) []int32 { return xs[:min(len(xs), 8)] }

// TestRefineDrainsOverloadedBlockFarFromMoves: block 0 is three over Lmax
// and made of weight-3 nodes with no edge out of the block; every other
// block has less than 3 to spare until four weight-1 nodes elsewhere make
// their cut-improving moves out of block 1. With one phase per round the
// heavy nodes are judged before that room exists, and nothing that moved is
// adjacent to them — only the rule that an overloaded start makes the round
// a full one sends a heavy node into block 1 afterwards. ParRebalance is not
// called.
func TestRefineDrainsOverloadedBlockFarFromMoves(t *testing.T) {
	const (
		k    = 4
		lmax = 12
	)
	var blockOf []int64
	b := graph.NewBuilder(5 + 12 + 10 + 10)
	node := func(block, weight int64) int32 {
		v := int32(len(blockOf))
		blockOf = append(blockOf, block)
		b.SetNodeWeight(v, weight)
		return v
	}
	clique := func(count int, block, weight int64) []int32 {
		vs := make([]int32, count)
		for i := range vs {
			vs[i] = node(block, weight)
			for _, u := range vs[:i] {
				b.AddEdge(u, vs[i])
			}
		}
		return vs
	}
	clique(5, 0, 3)                                  // block 0: 15 = lmax + 3, all heavy
	clique(8, 1, 1)                                  // block 1: 8 fillers + the 4 movers below = lmax
	two, three := clique(10, 2, 1), clique(10, 3, 1) // blocks 2 and 3: room for 2 each
	for i := 0; i < 4; i++ {
		mover, target := node(1, 1), two
		if i >= 2 {
			target = three
		}
		b.AddEdge(mover, target[4*(i%2)])
		b.AddEdge(mover, target[4*(i%2)+2])
	}
	g := b.Build()

	for _, phases := range []int{1, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			mpi.NewWorld(1).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, g)
				part := slices.Clone(blockOf)
				if bw := d.BlockWeights(part, k); !slices.Equal(bw, []int64{15, 12, 10, 10}) {
					t.Fatalf("test setup: block weights %v", bw)
				}
				ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 6, PhasesPerRound: phases, Seed: seed})
				if bw := d.BlockWeights(part, k); slices.Max(bw) > lmax {
					t.Errorf("phases=%d seed %d: block weights %v after refinement, lmax %d", phases, seed, bw, lmax)
				}
			})
		}
	}
}

// proposeClusterNode is the name TestKernelsMatchOracleCluster — which PR 24
// was to leave unedited — knows the clustering selection by; clustering no
// longer has a propose pass, so the kernel itself is evalClusterNode.
var proposeClusterNode = evalClusterNode

// proposeRefineNode is the same for TestKernelsMatchOracleRefine: refinement
// has no propose pass either, and its kernel is evalRefineNode.
var proposeRefineNode = evalRefineNode
