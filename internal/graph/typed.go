package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge-typed graphs implement the two extensions the paper names as
// future work (§5): directed and edge-heterogeneous (multiplex) networks.
// Both are instances of one generalisation, typed incidences: every
// edge endpoint carries an incidence code, which is the edge label on an
// undirected graph and the (edge label, direction) pair on a directed
// one. The census counts subgraph neighbours per (neighbour label,
// incidence code); an untyped graph is the special case with a single
// code, 0, at every incidence.
//
// A typed graph is a multigraph: parallel edges that differ in label or
// direction coexist. Its adjacency lists are sorted by (neighbour label,
// incidence code, neighbour id), so same-label same-code neighbours
// still form one contiguous run.

// ErrEdgeTyped marks an operation refused because its input carries the
// edge-type section and its output format has no room for it: persisting
// or rebuilding the graph there would silently drop edge labels and
// directions.
var ErrEdgeTyped = errors.New("format carries no edge-type section; edge-typed graphs are not supported")

// RequireUntyped returns an ErrEdgeTyped error prefixed with op when g
// is typed, for operations whose output format has no edge-type section.
func (g *Graph) RequireUntyped(op string) error {
	if g.Typed() {
		return fmt.Errorf("%s: %w", op, ErrEdgeTyped)
	}
	return nil
}

// Typed reports whether g carries the edge-type section: an edge label
// per edge and a directed flag. Only TypedBuilder (and ReadTSV on the
// typed format) produce typed graphs.
func (g *Graph) Typed() bool { return g.edgeAlpha != nil }

// Directed reports whether g's edges are arcs. Untyped graphs are always
// undirected.
func (g *Graph) Directed() bool { return g.directed }

// EdgeAlphabet returns the edge-label alphabet, or nil when g is untyped.
func (g *Graph) EdgeAlphabet() *Alphabet { return g.edgeAlpha }

// NumEdgeLabels returns the size of the edge-label alphabet (0 when
// untyped).
func (g *Graph) NumEdgeLabels() int {
	if g.edgeAlpha == nil {
		return 0
	}
	return g.edgeAlpha.Len()
}

// EdgeLabel returns the label of edge e in the edge alphabet. It panics
// on an untyped graph.
func (g *Graph) EdgeLabel(e EdgeID) Label { return g.edgeLabels[e] }

// NumIncidenceTypes returns m, the number of distinct incidence codes:
// 1 for an untyped graph, else the edge-label count, doubled when
// directed (and at least 1).
func (g *Graph) NumIncidenceTypes() int {
	m := g.NumEdgeLabels()
	if g.directed {
		m *= 2
	}
	if m < 1 {
		return 1
	}
	return m
}

// IncidenceCode returns the code of edge e as seen from its endpoint
// from: 0 on an untyped graph, the edge label on an undirected typed
// graph, and 2·label on a directed one, plus 1 when from is the arc's
// target.
func (g *Graph) IncidenceCode(e EdgeID, from NodeID) int32 {
	if g.edgeLabels == nil {
		return 0
	}
	c := int32(g.edgeLabels[e])
	if g.directed {
		c *= 2
		if from == g.ends[2*e+1] {
			c++
		}
	}
	return c
}

// IncidenceName renders incidence code c of a typed graph: "cites>" for
// an outgoing arc, "cites<" for an incoming one, "cites" when undirected.
func (g *Graph) IncidenceName(c int32) string {
	if !g.directed {
		return g.edgeAlpha.Name(Label(c))
	}
	name := g.edgeAlpha.Name(Label(c / 2))
	if c%2 == 0 {
		return name + ">"
	}
	return name + "<"
}

// typedAdjLess orders two incidences of node v by (neighbour label,
// incidence code, neighbour id), the typed adjacency order.
func (g *Graph) typedAdjLess(v, wa NodeID, ea EdgeID, wb NodeID, eb EdgeID) bool {
	if la, lb := g.labels[wa], g.labels[wb]; la != lb {
		return la < lb
	}
	if ca, cb := g.IncidenceCode(ea, v), g.IncidenceCode(eb, v); ca != cb {
		return ca < cb
	}
	return wa < wb
}

// validateTyped checks the invariants of the edge-type section and the
// typed adjacency: every incidence names an edge whose endpoints are the
// incidence's two nodes, and each adjacency list is strictly sorted in
// typed order (which also rules out an edge listed twice at one node).
func (g *Graph) validateTyped() error {
	if len(g.edgeLabels) != g.numEdges || len(g.ends) != 2*g.numEdges {
		return fmt.Errorf("graph: edge-type section sized for %d/%d edges, have %d",
			len(g.edgeLabels), len(g.ends)/2, g.numEdges)
	}
	for e, l := range g.edgeLabels {
		if int(l) < 0 || int(l) >= g.NumEdgeLabels() {
			return fmt.Errorf("graph: edge %d label %d out of edge alphabet range %d", e, l, g.NumEdgeLabels())
		}
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		adj, eids := g.Neighbors(v), g.IncidentEdges(v)
		for i, w := range adj {
			e := eids[i]
			if int(e) < 0 || int(e) >= g.numEdges {
				return fmt.Errorf("graph: node %d incidence references edge %d of %d", v, e, g.numEdges)
			}
			a, b := g.EdgeEndpoints(e)
			if !(a == v && b == w) && !(a == w && b == v) {
				return fmt.Errorf("graph: incidence (%d, %d) carries edge %d whose endpoints are (%d, %d)", v, w, e, a, b)
			}
			if i > 0 && !g.typedAdjLess(v, adj[i-1], eids[i-1], w, e) {
				return fmt.Errorf("graph: adjacency of node %d not (label,code,id)-sorted or has duplicates", v)
			}
		}
	}
	return nil
}

// TypedBuilder accumulates an edge-typed graph: labelled nodes, and
// labelled edges that are arcs when the builder is directed. Node and
// edge alphabets grow as names appear. Not safe for concurrent use;
// Build may be called once.
type TypedBuilder struct {
	nodes     *Builder // node labels, names and the node alphabet
	directed  bool
	edgeAlpha *Alphabet
	edges     []typedEdge
}

type typedEdge struct {
	u, v  NodeID
	label Label
}

// NewTypedBuilder returns a builder for an edge-typed graph; directed
// selects arc semantics for AddEdge.
func NewTypedBuilder(directed bool) *TypedBuilder {
	return &TypedBuilder{
		nodes:     NewBuilder(),
		directed:  directed,
		edgeAlpha: &Alphabet{index: make(map[string]Label)},
	}
}

// declare registers names in a, skipping those already present.
func declare(a *Alphabet, names []string) error {
	for _, n := range names {
		if _, ok := a.Lookup(n); !ok {
			if _, err := a.add(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// DeclareNodeLabels registers node label names up front, fixing their
// slot order independently of first use — needed when encodings from
// different graphs must be comparable.
func (b *TypedBuilder) DeclareNodeLabels(names ...string) error {
	return declare(b.nodes.alphabet, names)
}

// DeclareEdgeLabels registers edge label names up front, fixing their
// incidence-code order independently of first use.
func (b *TypedBuilder) DeclareEdgeLabels(names ...string) error {
	return declare(b.edgeAlpha, names)
}

// AddNode adds a node with the given label name and returns its ID.
func (b *TypedBuilder) AddNode(labelName string) (NodeID, error) {
	return b.nodes.AddNode(labelName)
}

// AddEdge adds an edge with the given edge-label name: the arc u -> v
// when the builder is directed, else an undirected edge. Self loops are
// rejected; an edge repeating the endpoints, label and direction of an
// earlier one is deduplicated at Build time, so parallel edges of
// distinct labels (or opposite directions) coexist.
func (b *TypedBuilder) AddEdge(u, v NodeID, edgeLabelName string) error {
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	n := NodeID(b.nodes.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("graph: edge %d-%d references unknown node (have %d nodes)", u, v, n)
	}
	l, ok := b.edgeAlpha.Lookup(edgeLabelName)
	if !ok {
		var err error
		if l, err = b.edgeAlpha.add(edgeLabelName); err != nil {
			return err
		}
	}
	if !b.directed && u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, typedEdge{u: u, v: v, label: l})
	return nil
}

// Build freezes the builder into an immutable edge-typed Graph. Edge IDs
// follow (u, v, label) order; EdgeEndpoints returns (source, target) for
// arcs and (smaller, larger) otherwise.
func (b *TypedBuilder) Build() (*Graph, error) {
	if b.nodes.built {
		return nil, fmt.Errorf("graph: Build called twice")
	}
	b.nodes.built = true

	sort.Slice(b.edges, func(i, j int) bool {
		a, c := b.edges[i], b.edges[j]
		if a.u != c.u {
			return a.u < c.u
		}
		if a.v != c.v {
			return a.v < c.v
		}
		return a.label < c.label
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			dedup = append(dedup, e)
		}
	}

	n, m := b.nodes.NumNodes(), len(dedup)
	offsets := make([]int32, n+1)
	for _, e := range dedup {
		offsets[e.u+1]++
		offsets[e.v+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	g := &Graph{
		labels:     b.nodes.labels,
		names:      materializeNames(b.nodes.names, n),
		offsets:    offsets,
		adj:        make([]NodeID, 2*m),
		adjEdge:    make([]EdgeID, 2*m),
		ends:       make([]NodeID, 2*m),
		alphabet:   b.nodes.alphabet,
		numEdges:   m,
		edgeLabels: make([]Label, m),
		edgeAlpha:  b.edgeAlpha,
		directed:   b.directed,
	}
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i, e := range dedup {
		id := EdgeID(i)
		g.ends[2*i], g.ends[2*i+1] = e.u, e.v
		g.edgeLabels[i] = e.label
		g.adj[cursor[e.u]], g.adjEdge[cursor[e.u]] = e.v, id
		cursor[e.u]++
		g.adj[cursor[e.v]], g.adjEdge[cursor[e.v]] = e.u, id
		cursor[e.v]++
	}
	for v := NodeID(0); int(v) < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		sort.Sort(&typedAdjSorter{g: g, v: v, adj: g.adj[lo:hi], eids: g.adjEdge[lo:hi]})
	}
	return g, nil
}

// MustBuild is like Build but panics on error. Intended for tests and
// examples with statically valid input.
func (b *TypedBuilder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// typedAdjSorter sorts node v's adjacency segment in typed order,
// keeping edge ids aligned.
type typedAdjSorter struct {
	g    *Graph
	v    NodeID
	adj  []NodeID
	eids []EdgeID
}

func (s *typedAdjSorter) Len() int { return len(s.adj) }
func (s *typedAdjSorter) Less(i, j int) bool {
	return s.g.typedAdjLess(s.v, s.adj[i], s.eids[i], s.adj[j], s.eids[j])
}
func (s *typedAdjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.eids[i], s.eids[j] = s.eids[j], s.eids[i]
}
