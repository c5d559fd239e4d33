package graph

import "sort"

// Induced returns the subgraph of g induced by the given node set, together
// with a mapping from new IDs to original IDs. Duplicate input nodes are
// collapsed. The induced graph shares g's alphabet. It is untyped: pass
// an untyped g (PartitionByRoot, its one in-tree caller with arbitrary
// input, refuses typed graphs first).
func Induced(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	uniq := make([]NodeID, 0, len(nodes))
	seen := make(map[NodeID]struct{}, len(nodes))
	for _, v := range nodes {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			uniq = append(uniq, v)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })

	remap := make(map[NodeID]NodeID, len(uniq))
	b := NewBuilderWithAlphabet(g.Alphabet())
	for i, v := range uniq {
		id, _ := b.AddLabeledNode(g.Label(v))
		if name := g.Name(v); name != "" {
			b.SetName(id, name)
		}
		remap[v] = NodeID(i)
	}
	for _, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if v < w {
				if nw, ok := remap[w]; ok {
					// Safe: both endpoints exist, v != w.
					_ = b.AddEdge(remap[v], nw)
				}
			}
		}
	}
	sub := b.MustBuild()
	return sub, uniq
}

// KHop returns all nodes within distance k of v (including v itself),
// in BFS discovery order.
func KHop(g *Graph, v NodeID, k int) []NodeID {
	if k < 0 {
		return nil
	}
	visited := map[NodeID]struct{}{v: {}}
	frontier := []NodeID{v}
	order := []NodeID{v}
	for d := 0; d < k && len(frontier) > 0; d++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if _, ok := visited[w]; !ok {
					visited[w] = struct{}{}
					next = append(next, w)
					order = append(order, w)
				}
			}
		}
		frontier = next
	}
	return order
}

// ConnectedComponents returns the connected components of g as slices of
// node IDs, largest first.
func ConnectedComponents(g *Graph) [][]NodeID {
	n := g.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for s := NodeID(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		queue := []NodeID{s}
		var members []NodeID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			members = append(members, u)
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// DegreePercentile returns the smallest degree d such that at least
// fraction p (0 < p <= 1) of nodes have degree <= d. This implements the
// percentile interpretation of the paper's dmax parameter (Table 2): a
// "90% level" disables exploration beyond nodes whose degree exceeds the
// 90th-percentile degree.
func DegreePercentile(g *Graph, p float64) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	if p >= 1 {
		return g.MaxDegree()
	}
	if p < 0 {
		p = 0
	}
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = g.Degree(NodeID(v))
	}
	sort.Ints(degs)
	idx := int(p*float64(n)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return degs[idx]
}
