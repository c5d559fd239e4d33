package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// randomTyped builds a random edge-typed graph over nodeLabels node
// labels and edgeLabels edge labels.
func randomTyped(rng *rand.Rand, n, nodeLabels, edgeLabels int, directed bool, p float64) *Graph {
	b := NewTypedBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(nodeLabels))))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() < p {
				b.AddEdge(NodeID(u), NodeID(v), string(rune('x'+rng.Intn(edgeLabels))))
			}
		}
	}
	return b.MustBuild()
}

func TestTypedBuilderBasicsDirected(t *testing.T) {
	b := NewTypedBuilder(true)
	u, _ := b.AddNode("paper")
	v, _ := b.AddNode("paper")
	if err := b.AddEdge(u, v, "cites"); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Typed() || !g.Directed() || g.NumEdges() != 1 || g.NumIncidenceTypes() != 2 {
		t.Fatalf("unexpected graph: typed=%v directed=%v edges=%d inc=%d",
			g.Typed(), g.Directed(), g.NumEdges(), g.NumIncidenceTypes())
	}
	// u sees an outgoing incidence, v an incoming one.
	e := g.IncidentEdges(u)[0]
	if got := g.IncidenceCode(e, u); got != 0 {
		t.Errorf("u incidence = %d, want 0 (cites>)", got)
	}
	if got := g.IncidenceCode(e, v); got != 1 {
		t.Errorf("v incidence = %d, want 1 (cites<)", got)
	}
	if g.IncidenceName(0) != "cites>" || g.IncidenceName(1) != "cites<" {
		t.Errorf("incidence names %q %q", g.IncidenceName(0), g.IncidenceName(1))
	}
	if a, bb := g.EdgeEndpoints(0); a != u || bb != v {
		t.Errorf("endpoints (%d,%d), want (%d,%d)", a, bb, u, v)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedBuilderMultiplexParallelEdges(t *testing.T) {
	// Two edges of different labels between the same endpoints coexist;
	// duplicates of the same label collapse.
	b := NewTypedBuilder(false)
	u, _ := b.AddNode("person")
	v, _ := b.AddNode("person")
	b.AddEdge(u, v, "friend")
	b.AddEdge(v, u, "friend") // duplicate (undirected)
	b.AddEdge(u, v, "colleague")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 (friend + colleague)", g.NumEdges())
	}
	if g.NumEdgeLabels() != 2 || g.NumIncidenceTypes() != 2 {
		t.Fatalf("edge labels = %d, incidences = %d", g.NumEdgeLabels(), g.NumIncidenceTypes())
	}
	if !g.HasEdge(u, v) || !g.HasEdge(v, u) {
		t.Error("HasEdge misses a multiplex edge")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedBuilderDirectedAntiparallel(t *testing.T) {
	// u->v and v->u are distinct arcs.
	b := NewTypedBuilder(true)
	u, _ := b.AddNode("a")
	v, _ := b.AddNode("a")
	b.AddEdge(u, v, "e")
	b.AddEdge(v, u, "e")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2 antiparallel arcs", g.NumEdges())
	}
	if g.Degree(u) != 2 || g.Degree(v) != 2 {
		t.Errorf("degrees = %d,%d, want 2,2", g.Degree(u), g.Degree(v))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedBuilderErrors(t *testing.T) {
	b := NewTypedBuilder(false)
	u, _ := b.AddNode("a")
	if err := b.AddEdge(u, u, "e"); err == nil {
		t.Error("self loop must fail")
	}
	if err := b.AddEdge(u, u+5, "e"); err == nil {
		t.Error("unknown endpoint must fail")
	}
	if err := b.AddEdge(u, -1, "e"); err == nil {
		t.Error("negative endpoint must fail")
	}
	if err := b.DeclareEdgeLabels(""); err == nil {
		t.Error("empty edge label must fail")
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("double Build must fail")
	}
}

func TestTypedAdjacencySortedByLabelAndIncidence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomTyped(rng, 15, 3, 2, trial%2 == 0, 0.3)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			adj, eids := g.Neighbors(v), g.IncidentEdges(v)
			for i := 1; i < len(adj); i++ {
				lp, lc := g.Label(adj[i-1]), g.Label(adj[i])
				if lp > lc {
					t.Fatalf("adjacency not label-sorted at node %d", v)
				}
				if lp == lc && g.IncidenceCode(eids[i-1], v) > g.IncidenceCode(eids[i], v) {
					t.Fatalf("adjacency not incidence-sorted at node %d", v)
				}
			}
			for _, w := range adj {
				if !g.HasEdge(v, w) || !g.HasEdge(w, v) {
					t.Fatalf("HasEdge(%d, %d) false for an adjacent pair", v, w)
				}
			}
		}
	}
}

func TestTypedValidateCatchesCorruption(t *testing.T) {
	g := randomTyped(rand.New(rand.NewSource(5)), 12, 2, 2, true, 0.3)
	g.edgeLabels[0] = Label(g.NumEdgeLabels())
	if err := g.Validate(); err == nil {
		t.Error("out-of-alphabet edge label must fail validation")
	}
	g = randomTyped(rand.New(rand.NewSource(5)), 12, 2, 2, true, 0.3)
	// Swap two distinct neighbours of one node without their edge ids:
	// each incidence then names an edge between other nodes.
	for v := 0; v < g.NumNodes(); v++ {
		if lo := g.offsets[v]; g.Degree(NodeID(v)) >= 2 && g.adj[lo] != g.adj[lo+1] {
			g.adj[lo], g.adj[lo+1] = g.adj[lo+1], g.adj[lo]
			break
		}
	}
	if err := g.Validate(); err == nil {
		t.Error("incidence disagreeing with its edge's endpoints must fail validation")
	}
}

func TestTypedTSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		g := randomTyped(rng, 3+rng.Intn(12), 1+rng.Intn(3), 1+rng.Intn(2), trial%2 == 0, 0.3)
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadTSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !g2.Typed() || g2.Directed() != g.Directed() ||
			g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: round trip shape mismatch", trial)
		}
		for e := EdgeID(0); int(e) < g.NumEdges(); e++ {
			u, v := g.EdgeEndpoints(e)
			u2, v2 := g2.EdgeEndpoints(e)
			name := g.EdgeAlphabet().Name(g.EdgeLabel(e))
			if u != u2 || v != v2 || g2.EdgeAlphabet().Name(g2.EdgeLabel(e)) != name {
				t.Fatalf("trial %d: edge %d changed in round trip", trial, e)
			}
		}
		for v := NodeID(0); int(v) < g.NumNodes(); v++ {
			if g2.Alphabet().Name(g2.Label(v)) != g.Alphabet().Name(g.Label(v)) {
				t.Fatalf("trial %d: node %d label changed", trial, v)
			}
		}
	}
}

func TestTypedReadTSVErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"duplicate type", "t\tdirected\nt\tdirected\n"},
		{"type after node", "n\ta\nt\tdirected\n"},
		{"bad mode", "t\tsideways\n"},
		{"bad type arity", "t\n"},
		{"bad node line", "t\tdirected\nn\n"},
		{"bad edge arity", "t\tdirected\nn\ta\nn\ta\ne\t0\t1\n"},
		{"bad edge id", "t\tdirected\nn\ta\nn\ta\ne\tx\t1\tr\n"},
		{"bad edge id 2", "t\tdirected\nn\ta\nn\ta\ne\t0\ty\tr\n"},
		{"self loop", "t\tdirected\nn\ta\ne\t0\t0\tr\n"},
		{"empty edge label", "t\tundirected\nn\ta\nn\ta\ne\t0\t1\t\n"},
		{"unknown record", "t\tdirected\nq\t1\n"},
		{"labelled edge in plain format", "e\t0\t1\tr\n"},
	}
	for _, tc := range cases {
		if _, err := ReadTSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestTypedReadTSVDirectedness(t *testing.T) {
	in := "# citations\nt\tdirected\nn\tp\nn\tp\ne\t1\t0\tcites\n"
	g, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Typed() || !g.Directed() {
		t.Fatal("mode not honoured")
	}
	if u, v := g.EdgeEndpoints(0); u != 1 || v != 0 {
		t.Fatalf("arc direction lost: %d -> %d", u, v)
	}
	g, err = ReadTSV(strings.NewReader("t\tundirected\nn\tp\nn\tp\ne\t1\t0\tcites\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Typed() || g.Directed() || g.NumIncidenceTypes() != 1 {
		t.Fatalf("undirected typed graph: typed=%v directed=%v m=%d", g.Typed(), g.Directed(), g.NumIncidenceTypes())
	}
}

// TestReadTSVNodeIDRange pins the 32-bit range check on node IDs in both
// formats: a wider integer must be refused, not wrapped onto an unrelated
// node (4294967296 would become node 0, -4294967295 node 1).
func TestReadTSVNodeIDRange(t *testing.T) {
	cases := []struct {
		name, in, line string
	}{
		{"plain 2^32", "n\ta\nn\tb\ne\t4294967296\t1\n", "line 3"},
		{"plain -(2^32-1)", "n\ta\nn\tb\ne\t0\t-4294967295\n", "line 3"},
		{"typed 2^32", "t\tdirected\nn\ta\nn\tb\ne\t4294967296\t1\tr\n", "line 4"},
		{"typed -(2^32-1)", "t\tundirected\nn\ta\nn\tb\ne\t0\t-4294967295\tr\n", "line 4"},
		{"int64 overflow", "n\ta\nn\tb\ne\t0\t99999999999999999999\n", "line 3"},
	}
	for _, tc := range cases {
		_, err := ReadTSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted an out-of-range node id", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.line) || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: error %q does not name %s and the range", tc.name, err, tc.line)
		}
	}
	// The largest in-range id is still just an unknown node, not a parse
	// failure.
	_, err := ReadTSV(strings.NewReader("n\ta\ne\t0\t2147483647\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Errorf("max int32 id: got %v, want an unknown-node error", err)
	}
}
