package graph

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

// InducedSubgraph extracts the subgraph induced by the given nodes. It
// returns the subgraph and the mapping from subgraph IDs back to ids in g.
// Edges with exactly one endpoint in nodes are dropped.
//
// Rows are written straight into the CSR arrays by filtering g's adjacency
// through a flat old→new table. For ascending nodes over a graph with sorted
// rows (every Builder-built graph) the filtered rows are already canonical
// and nothing is sorted; any other row is sorted and merged like Builder
// would, so the result does not depend on the order nodes are given in.
// The subgraph of a graph without stored weights stores none either.
func InducedSubgraph(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	newID := make([]int32, g.NumNodes()) // new ID + 1; 0 = not selected
	var arcs int64
	for i, v := range nodes {
		newID[v] = int32(i) + 1
		arcs += int64(g.Degree(v))
	}
	xadj := make([]int64, len(nodes)+1)
	adj := make([]NodeID, arcs)
	var adjw []int64
	if g.AdjW != nil {
		adjw = make([]int64, arcs)
	}
	nw := make([]int64, len(nodes))
	back := make([]NodeID, len(nodes))
	out := int64(0)
	for i, v := range nodes {
		back[i] = v
		nw[i] = g.NW[v]
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			if lu := newID[g.Adj[i]]; lu != 0 {
				adj[out] = lu - 1
				if adjw != nil {
					adjw[out] = g.AdjW[i]
				}
				out++
			}
		}
		xadj[i+1] = out
	}
	out, adjw = CanonicalizeCSR(xadj, adj, adjw, &RowScratch[NodeID]{})
	sub := &Graph{XAdj: xadj, Adj: adj[:out:out], NW: nw}
	if adjw != nil {
		sub.AdjW = adjw[:out:out]
	}
	return reserveUnitRows(sub), back
}
