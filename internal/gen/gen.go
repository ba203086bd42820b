// Package gen generates the synthetic graph families used by the
// experimental evaluation.
//
// Two families reproduce the paper's scalable inputs exactly (at smaller
// exponents): random geometric graphs rggX and Delaunay-like meshes delX.
// The complex-network instances of the paper (web crawls, social networks)
// are proprietary or too large for this environment, so the package
// substitutes generators with the same structural properties: R-MAT and
// Barabási-Albert graphs for heavy-tailed degree distributions, and
// planted-partition graphs for community structure. DESIGN.md §2 records
// the substitution rationale.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// RGG returns a random geometric graph with n nodes: points drawn uniformly
// from the unit square, connected when their Euclidean distance is below
// 0.55*sqrt(ln n / n) — the radius used by the paper (§V-A), chosen so the
// graph is almost certainly connected.
func RGG(n int32, seed uint64) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(max(n, 0)).Build()
	}
	r := rng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := int32(0); i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	radius := 0.55 * math.Sqrt(math.Log(float64(n))/float64(n))
	// Bucket the unit square into cells of side >= radius; only points in
	// the same or adjacent cells can be within radius of each other.
	cells := int32(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int32) (int32, int32) {
		cx := int32(xs[i] * float64(cells))
		cy := int32(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	// Counting sort points into cells.
	cellCount := make([]int32, cells*cells+1)
	for i := int32(0); i < n; i++ {
		cx, cy := cellOf(i)
		cellCount[cy*cells+cx+1]++
	}
	for c := int32(1); c <= cells*cells; c++ {
		cellCount[c] += cellCount[c-1]
	}
	cellNodes := make([]int32, n)
	fill := make([]int32, cells*cells)
	for i := int32(0); i < n; i++ {
		cx, cy := cellOf(i)
		c := cy*cells + cx
		cellNodes[cellCount[c]+fill[c]] = i
		fill[c]++
	}
	b := graph.NewBuilder(n)
	r2 := radius * radius
	for i := int32(0); i < n; i++ {
		cx, cy := cellOf(i)
		for dy := int32(-1); dy <= 1; dy++ {
			for dx := int32(-1); dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				c := ny*cells + nx
				for _, j := range cellNodes[cellCount[c]:cellCount[c+1]] {
					if j <= i {
						continue
					}
					ddx := xs[i] - xs[j]
					ddy := ys[i] - ys[j]
					if ddx*ddx+ddy*ddy < r2 {
						b.AddEdge(i, j)
					}
				}
			}
		}
	}
	return b.Build()
}

// DelaunayLike returns a planar triangulated mesh on approximately n nodes.
// It substitutes for the paper's Delaunay triangulations of random points
// (delX family): a jittered sqrt(n) x sqrt(n) grid is triangulated by
// splitting each quad along a pseudo-randomly chosen diagonal, yielding a
// planar mesh with average degree ~6, no community structure and the
// locality profile of a Delaunay mesh.
func DelaunayLike(n int32, seed uint64) *graph.Graph {
	side := int32(math.Round(math.Sqrt(float64(n))))
	if side < 2 {
		side = 2
	}
	r := rng.New(seed)
	total := side * side
	b := graph.NewBuilder(total)
	id := func(row, col int32) graph.NodeID { return row*side + col }
	for row := int32(0); row < side; row++ {
		for col := int32(0); col < side; col++ {
			if col+1 < side {
				b.AddEdge(id(row, col), id(row, col+1))
			}
			if row+1 < side {
				b.AddEdge(id(row, col), id(row+1, col))
			}
			if row+1 < side && col+1 < side {
				if r.Bool() {
					b.AddEdge(id(row, col), id(row+1, col+1))
				} else {
					b.AddEdge(id(row, col+1), id(row+1, col))
				}
			}
		}
	}
	return b.Build()
}

// RMAT returns an R-MAT (Kronecker-style) graph with 2^scale nodes and
// approximately edgeFactor*2^scale undirected edges. Quadrant probabilities
// (a, b, c) follow the usual convention with d = 1-a-b-c; the Graph500
// parameters (0.57, 0.19, 0.19) produce the heavy-tailed degree
// distribution of web graphs. Duplicate edges and self-loops are dropped,
// so the realized edge count is slightly below the target.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	n := int32(1) << scale
	r := rng.New(seed)
	bu := graph.NewBuilder(n)
	target := int64(edgeFactor) * int64(n)
	for e := int64(0); e < target; e++ {
		var u, v int32
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.Float64()
			switch {
			case p < a:
				// top-left quadrant: no bits set
			case p < a+b:
				v |= 1 << bit
			case p < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			bu.AddEdge(u, v)
		}
	}
	return bu.Build()
}

// BarabasiAlbert returns a preferential-attachment graph: nodes arrive one
// at a time and connect to mAttach existing nodes chosen proportionally to
// degree, producing a power-law degree distribution characteristic of
// social networks.
func BarabasiAlbert(n int32, mAttach int, seed uint64) *graph.Graph {
	if mAttach < 1 {
		mAttach = 1
	}
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	// targets holds one entry per edge endpoint: sampling uniformly from it
	// is sampling proportional to degree.
	targets := make([]int32, 0, 2*int(n)*mAttach)
	start := int32(mAttach)
	if start >= n {
		start = n - 1
	}
	// Seed clique among the first mAttach+1 nodes.
	for u := int32(0); u <= start; u++ {
		for v := u + 1; v <= start; v++ {
			b.AddEdge(u, v)
			targets = append(targets, u, v)
		}
	}
	// attached is v's attach set in draw order (at most mAttach entries, so
	// membership is a linear scan): the order feeds targets, and with it
	// every later draw.
	attached := make([]int32, 0, mAttach)
	for v := start + 1; v < n; v++ {
		attached = attached[:0]
		for len(attached) < mAttach {
			var t int32
			if len(targets) == 0 {
				t = r.Int31n(v)
			} else {
				t = targets[r.Intn(len(targets))]
			}
			if t != v && !slices.Contains(attached, t) {
				attached = append(attached, t)
			}
		}
		for _, t := range attached {
			b.AddEdge(v, t)
			targets = append(targets, v, t)
		}
	}
	return b.Build()
}

// PlantedPartition returns a graph with explicit community structure:
// communities whose sizes follow a truncated power law, dense inside
// (expected internal degree degIn per node) and sparse across (expected
// external degree degOut per node). It also returns the ground-truth
// community of each node. This family stands in for the paper's web graphs
// whose community structure is what cluster contraction exploits.
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func PlantedPartition(n int32, communities int32, degIn, degOut float64, seed uint64) (*graph.Graph, []int32) {
	if communities < 1 {
		communities = 1
	}
	r := rng.New(seed)
	// Power-law community sizes: weight_i ~ (i+1)^-0.8, scaled to sum n.
	weights := make([]float64, communities)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.8)
		wsum += weights[i]
	}
	sizes := make([]int32, communities)
	var assigned int32
	for i := range sizes {
		sizes[i] = int32(float64(n) * weights[i] / wsum)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		assigned += sizes[i]
	}
	// Fix rounding drift on the largest community.
	sizes[0] += n - assigned
	if sizes[0] < 1 {
		sizes[0] = 1
	}
	comm := make([]int32, 0, n)
	for i, s := range sizes {
		for j := int32(0); j < s; j++ {
			comm = append(comm, int32(i))
		}
	}
	comm = comm[:n]
	// Shuffle node->community assignment so community members are not
	// contiguous in ID space (the parallel scatter is by contiguous range).
	r.Shuffle(int(n), func(i, j int) { comm[i], comm[j] = comm[j], comm[i] })
	members := make([][]int32, communities)
	for v := int32(0); v < n; v++ {
		members[comm[v]] = append(members[comm[v]], v)
	}
	b := graph.NewBuilder(n)
	// Internal edges: for each community, draw size*degIn/2 random pairs.
	for _, ms := range members {
		s := len(ms)
		if s < 2 {
			continue
		}
		internal := int64(float64(s) * degIn / 2)
		for e := int64(0); e < internal; e++ {
			u := ms[r.Intn(s)]
			v := ms[r.Intn(s)]
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	// External edges: n*degOut/2 random cross pairs.
	external := int64(float64(n) * degOut / 2)
	for e := int64(0); e < external; e++ {
		u := r.Int31n(n)
		v := r.Int31n(n)
		if u != v && comm[u] != comm[v] {
			b.AddEdge(u, v)
		}
	}
	return b.Build(), comm
}

// WebCrawlLike returns a web-crawl analogue: half the nodes form a
// planted-partition community core (communities of power-law size, dense
// inside), the other half is a degree-one leaf fringe attached to hubCount
// hub nodes of the core. Real crawls have exactly this shape — strong
// communities plus an enormous page fringe — and the fringe is what makes
// matching-based coarsening stall (each hub matches at most one leaf per
// level) while cluster contraction absorbs whole stars in one step.
func WebCrawlLike(n int32, communities int32, degIn, degOut float64, hubCount int32, seed uint64) *graph.Graph {
	coreN := n / 2
	if coreN < communities {
		coreN = communities
	}
	if hubCount < 1 {
		hubCount = 1
	}
	if hubCount > coreN {
		hubCount = coreN
	}
	coreG, _ := PlantedPartition(coreN, communities, degIn, degOut, seed)
	b := graph.NewBuilder(n)
	for v := int32(0); v < coreN; v++ {
		ws := coreG.EdgeWeights(v)
		for i, u := range coreG.Neighbors(v) {
			if u > v {
				b.AddEdgeW(v, u, ws[i])
			}
		}
	}
	r := rng.New(seed ^ 0xfeedface)
	hubs := make([]int32, hubCount)
	for i := range hubs {
		hubs[i] = r.Int31n(coreN)
	}
	for leaf := coreN; leaf < n; leaf++ {
		b.AddEdge(leaf, hubs[r.Intn(len(hubs))])
	}
	return b.Build()
}

// Mesh3D returns an x*y*z grid with 6-neighbour connectivity, standing in
// for the paper's 3D numerical meshes ("packing", "channel").
func Mesh3D(x, y, z int32) *graph.Graph {
	n := x * y * z
	b := graph.NewBuilder(n)
	id := func(i, j, k int32) graph.NodeID { return (i*y+j)*z + k }
	for i := int32(0); i < x; i++ {
		for j := int32(0); j < y; j++ {
			for k := int32(0); k < z; k++ {
				if i+1 < x {
					b.AddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < y {
					b.AddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < z {
					b.AddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	return b.Build()
}

// Family identifies a named generator for the experiment harness.
type Family string

// Families used by the experiment harness.
const (
	FamilyRGG      Family = "rgg"
	FamilyDelaunay Family = "delaunay"
	FamilyRMAT     Family = "rmat"
	FamilyBA       Family = "ba"
	FamilyWeb      Family = "web"
	FamilyMesh3D   Family = "mesh3d"
	FamilyGrid     Family = "grid"
)

// ByFamily generates a graph of the requested family with about n nodes.
// It returns an error for unknown family names.
func ByFamily(f Family, n int32, seed uint64) (*graph.Graph, error) {
	switch f {
	case FamilyRGG:
		return RGG(n, seed), nil
	case FamilyDelaunay:
		return DelaunayLike(n, seed), nil
	case FamilyRMAT:
		scale := 0
		for (int32(1) << scale) < n {
			scale++
		}
		return RMAT(scale, 8, 0.57, 0.19, 0.19, seed), nil
	case FamilyBA:
		return BarabasiAlbert(n, 5, seed), nil
	case FamilyWeb:
		g, _ := PlantedPartition(n, max(n/256, 4), 12, 1.0, seed)
		return g, nil
	case FamilyMesh3D:
		side := int32(math.Cbrt(float64(n)))
		if side < 2 {
			side = 2
		}
		return Mesh3D(side, side, side), nil
	case FamilyGrid:
		side := int32(math.Sqrt(float64(n)))
		if side < 2 {
			side = 2
		}
		return graph.Grid2D(side, side), nil
	}
	return nil, fmt.Errorf("gen: unknown family %q", f)
}

// Perturb returns a copy of g with roughly frac of its undirected edges
// churned: each edge is dropped with probability frac, and one fresh
// uniform-random edge is inserted per dropped edge (a new random endpoint
// pair may coincide with an existing edge, in which case the weights
// merge). Node count and node weights are preserved; inserted edges have
// weight 1. Perturb models graph drift between partitioning runs — the
// dynamic-graph scenario the repartitioning API serves — so examples,
// benchmarks and tests can exercise Repartition realistically.
func Perturb(g *graph.Graph, frac float64, seed uint64) *graph.Graph {
	return ApplyEdgeDeltas(g, PerturbDeltas(g, frac, seed))
}

// EdgeDelta is one undirected edge mutation produced by PerturbDeltas:
// an insertion (Add) of {U, V} with weight W, or a removal. The delta
// stream uses the same semantics as the live-graph update API: adding an
// edge that already exists merges by summing weights, removing an absent
// edge is a no-op.
type EdgeDelta struct {
	Add  bool
	U, V graph.NodeID
	W    int64
}

// PerturbDeltas returns the edge-delta stream Perturb applies: for each
// dropped edge a removal (in adjacency scan order), then one weight-1
// insertion at uniform-random endpoints per removal. The stream is
// deterministic under seed, and ApplyEdgeDeltas(g, PerturbDeltas(g, frac,
// seed)) is identical to Perturb(g, frac, seed) — the live-graph tests and
// the svc-live benchmark feed these deltas incrementally instead of
// diffing whole graphs.
func PerturbDeltas(g *graph.Graph, frac float64, seed uint64) []EdgeDelta {
	n := g.NumNodes()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	r := rng.New(seed)
	var deltas []EdgeDelta
	for v := int32(0); v < n; v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u <= v {
				continue // each undirected edge handled once
			}
			if frac > 0 && r.Float64() < frac {
				deltas = append(deltas, EdgeDelta{U: v, V: u, W: ws[i]})
			}
		}
	}
	dropped := len(deltas)
	if n >= 2 {
		for i := 0; i < dropped; i++ {
			u := r.Int31n(n)
			v := r.Int31n(n - 1)
			if v >= u {
				v++
			}
			deltas = append(deltas, EdgeDelta{Add: true, U: u, V: v, W: 1})
		}
	}
	return deltas
}

// ApplyEdgeDeltas applies an edge-delta stream to g and returns the
// resulting graph. Node count and node weights are preserved. Deltas are
// applied in order with merge-on-add semantics: an insertion on an
// existing (or earlier-inserted) edge sums weights, a removal zeroes the
// edge whatever its weight, and a removal of an absent edge is a no-op.
func ApplyEdgeDeltas(g *graph.Graph, deltas []EdgeDelta) *graph.Graph {
	n := g.NumNodes()
	// Effective weight of every touched edge (0 = absent).
	eff := make(map[uint64]int64, len(deltas))
	baseWeight := func(u, v graph.NodeID) int64 {
		w, ok := g.HasEdge(u, v)
		if !ok {
			return 0
		}
		return w
	}
	for _, d := range deltas {
		key := graph.EdgeKey(d.U, d.V)
		w, ok := eff[key]
		if !ok {
			w = baseWeight(d.U, d.V)
		}
		if d.Add {
			w += d.W
		} else {
			w = 0
		}
		eff[key] = w
	}
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		if g.NW[v] != 1 {
			b.SetNodeWeight(v, g.NW[v])
		}
	}
	for v := int32(0); v < n; v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			if w, ok := eff[graph.EdgeKey(v, u)]; ok {
				if w > 0 {
					b.AddEdgeW(v, u, w)
				}
				continue
			}
			b.AddEdgeW(v, u, ws[i])
		}
	}
	// New edges, in delta order (not eff's map order).
	for _, d := range deltas {
		key := graph.EdgeKey(d.U, d.V)
		w := eff[key]
		if w <= 0 {
			continue
		}
		if _, ok := g.HasEdge(d.U, d.V); ok {
			continue // already emitted (possibly overridden) above
		}
		b.AddEdgeW(d.U, d.V, w)
		eff[key] = 0 // emitted once; later deltas on the same edge add nothing
	}
	return b.Build()
}
