package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hsgf/internal/graph"
)

// ReferenceCensus enumerates the rooted subgraph census by brute force:
// it explores all connected edge subsets containing root with at most
// opts.MaxEdges edges, deduplicating subsets via their sorted edge-id key,
// and tallies canonical characteristic sequences. Its cost is exponential
// in the neighbourhood size; it exists as a correctness oracle for the
// optimised census and for the isomorphism audit, not for production use.
//
// The result maps the canonical sequence rendering (label slots and counts
// joined by commas) to occurrence counts. opts.KeyMode and
// opts.DisableLeafBatching are ignored. On a typed graph subgraphs are
// weakly connected edge sets and sequences count typed incidences.
func ReferenceCensus(g *graph.Graph, root graph.NodeID, opts Options) map[string]int64 {
	k := g.NumLabels()
	maskSlot := int32(-1)
	if opts.MaskRootLabel {
		maskSlot = int32(k)
		k++
	}
	m := g.NumIncidenceTypes()
	slot := func(v graph.NodeID) int32 {
		if v == root && maskSlot >= 0 {
			return maskSlot
		}
		return int32(g.Label(v))
	}
	dmax := opts.MaxDegree
	if dmax <= 0 {
		dmax = int(^uint(0) >> 1)
	}

	counts := make(map[string]int64)
	seen := make(map[string]bool)

	// expandable reports whether edges incident to node x (inside the
	// subgraph) may be used to extend it: the root always may, other
	// nodes only if they are not hubs.
	expandable := func(x graph.NodeID) bool {
		return x == root || g.Degree(x) <= dmax
	}

	var rec func(edgeIDs []graph.EdgeID, nodes map[graph.NodeID]bool)
	rec = func(edgeIDs []graph.EdgeID, nodes map[graph.NodeID]bool) {
		key := edgeSetKey(edgeIDs)
		if seen[key] {
			return
		}
		seen[key] = true
		counts[canonicalKey(edgeSetSequence(g, edgeIDs, k, m, slot))]++

		if len(edgeIDs) == opts.MaxEdges {
			return
		}
		inSet := make(map[graph.EdgeID]bool, len(edgeIDs))
		for _, id := range edgeIDs {
			inSet[id] = true
		}
		tried := make(map[graph.EdgeID]bool)
		for v := range nodes {
			if !expandable(v) {
				continue
			}
			eids := g.IncidentEdges(v)
			adj := g.Neighbors(v)
			for i, id := range eids {
				if inSet[id] || tried[id] {
					continue
				}
				tried[id] = true
				w := adj[i]
				newNodes := nodes
				if !nodes[w] {
					newNodes = make(map[graph.NodeID]bool, len(nodes)+1)
					for x := range nodes {
						newNodes[x] = true
					}
					newNodes[w] = true
				}
				rec(append(append([]graph.EdgeID(nil), edgeIDs...), id), newNodes)
			}
		}
	}

	// Seed with each edge incident to the root.
	eids := g.IncidentEdges(root)
	adj := g.Neighbors(root)
	for i, id := range eids {
		rec([]graph.EdgeID{id}, map[graph.NodeID]bool{root: true, adj[i]: true})
	}
	return counts
}

// edgeSetSequence encodes an explicit edge set from scratch: each edge
// adds one unit at each endpoint, in the column of (other endpoint's
// slot, incidence code seen from this endpoint).
func edgeSetSequence(g *graph.Graph, edgeIDs []graph.EdgeID, k, m int, slot func(graph.NodeID) int32) Sequence {
	stride := 1 + k*m
	pos := make(map[graph.NodeID]int, len(edgeIDs)+1)
	var vals []int32
	at := func(v graph.NodeID) int {
		i, ok := pos[v]
		if !ok {
			i = len(pos)
			pos[v] = i
			vals = append(vals, make([]int32, stride)...)
			vals[i*stride] = slot(v)
		}
		return i
	}
	for _, id := range edgeIDs {
		a, b := g.EdgeEndpoints(id)
		ia, ib := at(a), at(b)
		vals[ia*stride+1+int(slot(b))*m+int(g.IncidenceCode(id, a))]++
		vals[ib*stride+1+int(slot(a))*m+int(g.IncidenceCode(id, b))]++
	}
	s := Sequence{K: k, M: m, Values: vals}
	s.normalize()
	return s
}

func edgeSetKey(ids []graph.EdgeID) string {
	sorted := append([]graph.EdgeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	for _, id := range sorted {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// canonicalKey renders a canonical sequence as an alphabet-independent
// comparison key.
func canonicalKey(s Sequence) string {
	buf := make([]byte, 0, 3*len(s.Values))
	for i, v := range s.Values {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// CanonicalCounts re-keys a census by the alphabet-independent canonical
// rendering of each encoding (on a typed graph its 1+k·m values per
// node), using the extractor's decode table. It is
// the bridge between the optimised census and the reference enumerator in
// tests, and a convenient stable representation for serialization.
func CanonicalCounts(e *Extractor, c *Census) (map[string]int64, error) {
	out := make(map[string]int64, len(c.Counts))
	for key, n := range c.Counts {
		s, ok := e.Decode(key)
		if !ok {
			return nil, fmt.Errorf("core: census key %x has no decoded representative", key)
		}
		out[canonicalKey(s)] += n
	}
	return out, nil
}
