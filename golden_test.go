package parhip_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/gen"
)

// TestGoldenChecksums pins the partition itself — Checksum() and cut — for a
// handful of small configurations through the public API. Performance work
// on the kernels must leave every row untouched: a row that moves means an
// exactness argument is wrong, not that the table is stale.
//
// Re-record only when a change is *meant* to alter the algorithm's choices
// (a different tie-break, traversal order, RNG stream, coarsening rule):
// blank the want fields, run `go test -run TestGoldenChecksums .`, copy the
// printed rows back, and say in CHANGES.md why the partitions moved. The
// rows below were recorded at the parent of PR 22 (commit c906dbe), before
// any kernel was edited.
func TestGoldenChecksums(t *testing.T) {
	ctx := context.Background()
	web := func(n int32, seed uint64) *parhip.Graph {
		g, err := gen.ByFamily(gen.FamilyWeb, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	session := func(g *parhip.Graph, opts ...parhip.Option) func() (parhip.Result, error) {
		return func() (parhip.Result, error) {
			p, err := parhip.New(g, opts...)
			if err != nil {
				return parhip.Result{}, err
			}
			return p.Run(ctx)
		}
	}
	mesh := gen.DelaunayLike(6000, 3)
	hub := gen.HubMesh(3800, 128, 80, 2)
	webG := web(8192, 5)

	cases := []struct {
		name     string
		run      func() (parhip.Result, error)
		checksum string
		cut      int64
	}{
		{"mesh/k=4/P=1", session(mesh, parhip.WithK(4), parhip.WithClass(parhip.Mesh), parhip.WithPEs(1), parhip.WithSeed(11)),
			"b100e175584ef53a", 341},
		{"mesh/k=2/P=4", session(mesh, parhip.WithK(2), parhip.WithClass(parhip.Mesh), parhip.WithPEs(4), parhip.WithSeed(12)),
			"3d580e935d682067", 162},
		{"web/k=16/P=2", session(webG, parhip.WithK(16), parhip.WithPEs(2), parhip.WithSeed(13)),
			"cf53ef5f9f732675", 12456},
		{"web/k=8/P=1", session(webG, parhip.WithK(8), parhip.WithPEs(1), parhip.WithSeed(14)),
			"9f0e7dd5d406cada", 8601},
		{"hub/k=8/P=2/W=2", session(hub, parhip.WithK(8), parhip.WithPEs(2), parhip.WithWorkers(2), parhip.WithSeed(15)),
			"4a5d15c78f81f6eb", 9047},
		{"hub/k=8/P=4", session(hub, parhip.WithK(8), parhip.WithPEs(4), parhip.WithSeed(16)),
			"83f9ca841bb2b199", 9084},
		{"rmat-16K/k=16/P=2", session(gen.RMAT(14, 8, 0.57, 0.19, 0.19, 6), parhip.WithK(16), parhip.WithPEs(2), parhip.WithSeed(17)),
			"8de1b6ecf5596b4f", 103207},
		{"web/repartition/k=16/P=2", func() (parhip.Result, error) {
			cold, err := session(webG, parhip.WithK(16), parhip.WithPEs(2), parhip.WithSeed(13))()
			if err != nil {
				return cold, err
			}
			return parhip.Repartition(ctx, gen.Perturb(webG, 0.05, 7), cold.Partition, parhip.WithPEs(2), parhip.WithSeed(18))
		}, "914c3046c1a93dcc", 14166},
		{"web/baseline/k=8/P=2", func() (parhip.Result, error) {
			return parhip.RunBaseline(ctx, web(4096, 8), 0, parhip.WithK(8), parhip.WithPEs(2), parhip.WithSeed(19))
		}, "4de39dd68d5288ab", 4793},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Partition.Checksum(); got != tc.checksum || res.Cut != tc.cut {
				t.Errorf("partition moved:\n got  %q, %d\n want %q, %d", got, res.Cut, tc.checksum, tc.cut)
			}
		})
	}
}
