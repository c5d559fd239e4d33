// Package graph provides the heterogeneous (node-labelled) undirected graph
// substrate used by the subgraph-feature framework.
//
// A Graph is an immutable compressed-sparse-row structure produced by a
// Builder. Adjacency lists are sorted by (neighbour label, neighbour id),
// which the census's label-grouping heuristic relies on: all neighbours that
// share a label form one contiguous run. Graphs carry a label alphabet that
// maps small integer Label values to human-readable names.
//
// Graphs are undirected and contain no self loops or parallel edges,
// matching the model of Spitz et al. (GRADES-NDA'18), §3. A graph may
// additionally carry an edge-type section — edge labels and directions,
// the paper's §5 extension — see TypedBuilder.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node within one Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1.
type NodeID int32

// Label identifies a node type (class) within one Graph's alphabet. Labels
// are dense: a graph with k labels uses Labels 0..k-1.
type Label int32

// EdgeID identifies an undirected edge within one Graph. IDs are dense:
// a graph with m edges uses EdgeIDs 0..m-1. Both directed incidences of an
// undirected edge share one EdgeID, which lets algorithms keep per-edge
// state in flat arrays.
type EdgeID int32

// Graph is an immutable heterogeneous network: an undirected, loop-free,
// simple graph whose nodes carry exactly one label each.
//
// The zero value is an empty graph with no nodes and no labels.
type Graph struct {
	labels []Label  // labels[v] is the label of node v
	names  []string // names[v] is an optional node name ("" if unset)

	offsets []int32  // CSR offsets, len = numNodes+1
	adj     []NodeID // CSR adjacency, sorted by (label, id) per node
	adjEdge []EdgeID // adjEdge[i] is the EdgeID of the incidence adj[i]
	ends    []NodeID // ends[2*e], ends[2*e+1] are the endpoints of edge e, smaller first

	alphabet *Alphabet
	numEdges int

	// Optional edge-type section (typed.go), set only by TypedBuilder:
	// the label of each edge in edgeAlpha, and whether edges are arcs
	// (ends then holds source, target). edgeAlpha == nil means untyped.
	edgeLabels []Label
	edgeAlpha  *Alphabet
	directed   bool

	// backing retains the memory that aliased CSR slices point into (the
	// read-only mapping on the zero-copy load path); see PinBacking.
	backing any
}

// PinBacking retains an opaque reference to the memory backing the
// graph's CSR slices — the read-only file mapping on the zero-copy load
// path. Accessors hand out sub-slices of those arrays (Neighbors,
// IncidentEdges) which do not keep the Graph itself reachable, so no
// finalizer can know when the backing is truly dead; pinning it here and
// never releasing it is the only sound lifetime. The pages are clean and
// file-backed, so an unreleased mapping costs address space, not
// resident memory.
func (g *Graph) PinBacking(backing any) { g.backing = backing }

// Alphabet maps between Label values and their string names. An Alphabet is
// immutable once its Graph is built.
type Alphabet struct {
	names []string
	index map[string]Label
}

// NewAlphabet returns an alphabet over the given label names, in order.
// Duplicate names are an error.
func NewAlphabet(names ...string) (*Alphabet, error) {
	a := &Alphabet{index: make(map[string]Label, len(names))}
	for _, n := range names {
		if _, err := a.add(n); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustAlphabet is like NewAlphabet but panics on error. It is intended for
// statically known label sets in tests and examples.
func MustAlphabet(names ...string) *Alphabet {
	a, err := NewAlphabet(names...)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *Alphabet) add(name string) (Label, error) {
	if name == "" {
		return 0, fmt.Errorf("graph: empty label name")
	}
	if _, ok := a.index[name]; ok {
		return 0, fmt.Errorf("graph: duplicate label name %q", name)
	}
	l := Label(len(a.names))
	a.names = append(a.names, name)
	a.index[name] = l
	return l, nil
}

// Len returns the number of labels in the alphabet.
func (a *Alphabet) Len() int { return len(a.names) }

// Name returns the name of label l. It panics if l is out of range.
func (a *Alphabet) Name(l Label) string { return a.names[l] }

// Lookup returns the label with the given name and whether it exists.
func (a *Alphabet) Lookup(name string) (Label, bool) {
	l, ok := a.index[name]
	return l, ok
}

// Names returns a copy of all label names in label order.
func (a *Alphabet) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels returns the size of the label alphabet.
func (g *Graph) NumLabels() int {
	if g.alphabet == nil {
		return 0
	}
	return g.alphabet.Len()
}

// Alphabet returns the graph's label alphabet.
func (g *Graph) Alphabet() *Alphabet { return g.alphabet }

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// Name returns the optional name of node v ("" if none was assigned).
func (g *Graph) Name(v NodeID) string {
	if g.names == nil {
		return ""
	}
	return g.names[v]
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v, sorted by (label, id).
// The returned slice aliases the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns the EdgeIDs of v's incidences, aligned with
// Neighbors(v): IncidentEdges(v)[i] is the id of the edge between v and
// Neighbors(v)[i]. The returned slice aliases graph storage.
func (g *Graph) IncidentEdges(v NodeID) []EdgeID {
	return g.adjEdge[g.offsets[v]:g.offsets[v+1]]
}

// EdgeEndpoints returns the two endpoints of edge e, smaller NodeID first
// — or (source, target) for an arc of a directed graph.
func (g *Graph) EdgeEndpoints(e EdgeID) (NodeID, NodeID) {
	return g.ends[2*e], g.ends[2*e+1]
}

// HasEdge reports whether nodes u and v are adjacent (by an edge of any
// label or direction). It runs in O(log degree(u)) time on an untyped
// graph, plus the length of v's label run at u on a typed one.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	// Search within the label run of v's label, since adjacency is sorted
	// by (label, id) — or by (label, code, id) when typed, where the run
	// is scanned instead.
	lv := g.labels[v]
	adj := g.Neighbors(u)
	typed := g.Typed()
	i := sort.Search(len(adj), func(i int) bool {
		w := adj[i]
		lw := g.labels[w]
		if lw != lv {
			return lw > lv
		}
		return typed || w >= v
	})
	if typed {
		for ; i < len(adj) && g.labels[adj[i]] == lv; i++ {
			if adj[i] == v {
				return true
			}
		}
		return false
	}
	return i < len(adj) && adj[i] == v
}

// LabelRun describes a maximal run of same-labelled neighbours in an
// adjacency list.
type LabelRun struct {
	Label Label
	Nodes []NodeID // aliases graph storage; do not modify
}

// NeighborLabelRuns returns the adjacency of v grouped into per-label runs,
// in ascending label order. The runs alias the graph's internal storage.
// This is the access path used by the census's heterogeneous optimization
// heuristic (§3.2), which processes all same-labelled neighbours at once.
func (g *Graph) NeighborLabelRuns(v NodeID) []LabelRun {
	adj := g.Neighbors(v)
	var runs []LabelRun
	for i := 0; i < len(adj); {
		l := g.labels[adj[i]]
		j := i + 1
		for j < len(adj) && g.labels[adj[j]] == l {
			j++
		}
		runs = append(runs, LabelRun{Label: l, Nodes: adj[i:j]})
		i = j
	}
	return runs
}

// CountLabels returns, for each label, the number of nodes carrying it.
func (g *Graph) CountLabels() []int {
	counts := make([]int, g.NumLabels())
	for _, l := range g.labels {
		counts[l]++
	}
	return counts
}

// NodesWithLabel returns all node IDs carrying label l, in ascending order.
func (g *Graph) NodesWithLabel(l Label) []NodeID {
	var out []NodeID
	for v, lv := range g.labels {
		if lv == l {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// MaxDegree returns the largest node degree in the graph (0 for an empty
// graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// Edges calls fn for every undirected edge (u, v) with u < v. Iteration
// stops early if fn returns false.
func (g *Graph) Edges(fn func(u, v NodeID) bool) {
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// Validate checks internal invariants: offset monotonicity, adjacency
// symmetry, absence of self loops, per-node (label, id) sort order, and
// absence of duplicate edges — or, on a typed graph, the typed adjacency
// order and edge-type section (see validateTyped). It is intended for
// tests and for graphs deserialized from external input.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.offsets) != n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), n+1)
	}
	if g.offsets[0] != 0 || int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph: offset bounds [%d,%d] do not cover adjacency of length %d",
			g.offsets[0], g.offsets[n], len(g.adj))
	}
	if len(g.adj) != 2*g.numEdges {
		return fmt.Errorf("graph: adjacency length %d inconsistent with %d edges", len(g.adj), g.numEdges)
	}
	for v := NodeID(0); int(v) < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: non-monotone offsets at node %d", v)
		}
		adj := g.Neighbors(v)
		for i, w := range adj {
			if w == v {
				return fmt.Errorf("graph: self loop at node %d", v)
			}
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbour %d", v, w)
			}
			if g.Typed() {
				continue // order and symmetry checked by validateTyped
			}
			if i > 0 {
				p := adj[i-1]
				if g.labels[p] > g.labels[w] || (g.labels[p] == g.labels[w] && p >= w) {
					return fmt.Errorf("graph: adjacency of node %d not (label,id)-sorted or has duplicates", v)
				}
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge %d-%d", v, w)
			}
		}
	}
	for _, l := range g.labels {
		if int(l) < 0 || int(l) >= g.NumLabels() {
			return fmt.Errorf("graph: label %d out of alphabet range %d", l, g.NumLabels())
		}
	}
	if g.Typed() {
		return g.validateTyped()
	}
	return nil
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, labels: %d}", g.NumNodes(), g.NumEdges(), g.NumLabels())
}
