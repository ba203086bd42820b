package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestFingerprintGolden pins the digest of fixed generated graphs. The
// fingerprint names `.bpart` files and parhipd's cache keys, so a faster
// encoding must hash the same byte stream: these values may never change.
// The weighted copy gives AdjW and NW values other than 1, and both graphs
// are large enough to span many encoding buffers.
func TestFingerprintGolden(t *testing.T) {
	mesh := gen.DelaunayLike(20000, 1)
	b := graph.NewBuilder(mesh.NumNodes())
	for v := int32(0); v < mesh.NumNodes(); v++ {
		b.SetNodeWeight(v, int64(v%7+1))
		for _, u := range mesh.Neighbors(v) {
			if u > v {
				b.AddEdgeW(v, u, int64((u+v)%5+1))
			}
		}
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"delaunay-20000", mesh, "6470a67919a65f61a6e8393dd7de31444f73bb8a48c20ce4abee0280f39cddac"},
		{"delaunay-20000-weighted", b.Build(), "95d98ac1fcecfb79e64ec6ed143ab5b0d661695f604c087b72bf0483241a0adc"},
	} {
		if got := tc.g.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
