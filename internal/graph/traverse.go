package graph

// BFS performs a breadth-first search from source and returns the order in
// which nodes were discovered together with a distance array (-1 for
// unreachable nodes).
//
//lint:rawslice-ok BFS distance vector, not a partition
func BFS(g *Graph, source NodeID) (order []NodeID, dist []int32) {
	n := g.NumNodes()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	order = make([]NodeID, 0, n)
	queue := make([]NodeID, 0, n)
	dist[source] = 0
	queue = append(queue, source)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return order, dist
}

// ConnectedComponents labels every node with a component ID in [0, count)
// and returns the labels and the component count.
//
//lint:rawslice-ok component IDs are cluster labels local to traversal, not a partition
func ConnectedComponents(g *Graph) (comp []int32, count int32) {
	n := g.NumNodes()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	for s := int32(0); s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = count
					stack = append(stack, u)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph is considered connected).
func IsConnected(g *Graph) bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, cnt := ConnectedComponents(g)
	return cnt == 1
}

// DegreeOrder returns the node IDs sorted by ascending degree, with ties
// broken by node ID. The paper (§III-A) uses this ordering in the first
// label propagation round so that low-degree nodes settle before hubs.
func DegreeOrder(g *Graph) []NodeID {
	n := int(g.NumNodes())
	// Counting sort by degree: degrees are bounded by n-1.
	maxDeg := int(g.MaxDegree())
	cnt := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		cnt[g.Degree(int32(v))+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		cnt[d] += cnt[d-1]
	}
	order := make([]NodeID, n)
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		order[cnt[d]] = int32(v)
		cnt[d]++
	}
	return order
}

// InducedSubgraph extracts the subgraph induced by the given nodes. It
// returns the subgraph and the mapping from subgraph IDs back to ids in g.
// Edges with exactly one endpoint in nodes are dropped.
//
// Rows are written straight into the CSR arrays by filtering g's adjacency
// through a flat old→new table. For ascending nodes over a graph with sorted
// rows (every Builder-built graph) the filtered rows are already canonical
// and nothing is sorted; any other row is sorted and merged like Builder
// would, so the result does not depend on the order nodes are given in.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	newID := make([]int32, g.NumNodes()) // new ID + 1; 0 = not selected
	var arcs int64
	for i, v := range nodes {
		newID[v] = int32(i) + 1
		arcs += int64(g.Degree(v))
	}
	xadj := make([]int64, len(nodes)+1)
	adj := make([]NodeID, arcs)
	adjw := make([]int64, arcs)
	nw := make([]int64, len(nodes))
	back := make([]NodeID, len(nodes))
	var rs RowScratch[NodeID]
	out := int64(0)
	for i, v := range nodes {
		back[i] = v
		nw[i] = g.NW[v]
		lo := out
		ws := g.EdgeWeights(v)
		for j, u := range g.Neighbors(v) {
			if lu := newID[u]; lu != 0 {
				adj[out], adjw[out] = lu-1, ws[j]
				out++
			}
		}
		out = lo + int64(CanonicalizeRow(adj[lo:out], adjw[lo:out], &rs))
		xadj[i+1] = out
	}
	return &Graph{XAdj: xadj, Adj: adj[:out:out], AdjW: adjw[:out:out], NW: nw}, back
}
