package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hsgf/internal/datagen"
	"hsgf/internal/graph"
)

// randomTyped builds a random edge-typed graph; node labels are declared
// up front so slot order is independent of first use.
func randomTyped(rng *rand.Rand, n, nodeLabels, edgeLabels int, directed bool, p float64) *graph.Graph {
	b := graph.NewTypedBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(nodeLabels))))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && u > v) {
				continue
			}
			if rng.Float64() < p {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), string(rune('x'+rng.Intn(edgeLabels))))
			}
		}
	}
	return b.MustBuild()
}

// canonicalCensus runs one root's census and re-keys it canonically.
func canonicalCensus(t *testing.T, g *graph.Graph, root graph.NodeID, opts Options) map[string]int64 {
	t.Helper()
	e, err := NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := CanonicalCounts(e, e.Census(root))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDirectedEncodingDistinguishesDirection(t *testing.T) {
	// a -> b versus b -> a over the same node labels must differ.
	build := func(forward bool) *graph.Graph {
		b := graph.NewTypedBuilder(true)
		u, _ := b.AddNode("a")
		v, _ := b.AddNode("b")
		if forward {
			b.AddEdge(u, v, "e")
		} else {
			b.AddEdge(v, u, "e")
		}
		return b.MustBuild()
	}
	fwd := canonicalCensus(t, build(true), 0, Options{MaxEdges: 1})
	bwd := canonicalCensus(t, build(false), 0, Options{MaxEdges: 1})
	if reflect.DeepEqual(fwd, bwd) {
		t.Fatalf("directed encodings identical for opposite arcs: %v", fwd)
	}
}

func TestMultiplexEncodingDistinguishesEdgeLabels(t *testing.T) {
	build := func(label string) *graph.Graph {
		b := graph.NewTypedBuilder(false)
		// Fix the incidence-code order so encodings of the two graphs
		// are comparable.
		if err := b.DeclareEdgeLabels("friend", "colleague"); err != nil {
			t.Fatal(err)
		}
		u, _ := b.AddNode("a")
		v, _ := b.AddNode("a")
		b.AddEdge(u, v, label)
		return b.MustBuild()
	}
	if reflect.DeepEqual(canonicalCensus(t, build("friend"), 0, Options{MaxEdges: 1}),
		canonicalCensus(t, build("colleague"), 0, Options{MaxEdges: 1})) {
		t.Fatal("multiplex encodings identical for different edge labels")
	}
}

func TestTypedCensusMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		directed := trial%2 == 0
		g := randomTyped(rng, 3+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(2), directed, 0.15+rng.Float64()*0.35)
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		opts := Options{
			MaxEdges:      1 + rng.Intn(3),
			MaskRootLabel: rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			opts.MaxDegree = 1 + rng.Intn(5)
		}
		if rng.Intn(3) == 0 {
			opts.KeyMode = CanonicalString
		}
		got := canonicalCensus(t, g, root, opts)
		if want := ReferenceCensus(g, root, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (directed=%v root=%d opts=%+v):\n got  %v\n want %v",
				trial, directed, root, opts, got, want)
		}
	}
}

func TestTypedLeafBatchingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		g := randomTyped(rng, 5+rng.Intn(8), 2, 2, trial%2 == 0, 0.3)
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		on := Options{MaxEdges: 1 + rng.Intn(3)}
		off := on
		off.DisableLeafBatching = true
		if !reflect.DeepEqual(canonicalCensus(t, g, root, on), canonicalCensus(t, g, root, off)) {
			t.Fatalf("trial %d: leaf batching changes the typed census", trial)
		}
	}
}

// TestTypedReducesToCore anchors the extension to the validated
// baseline: a typed undirected graph with one edge label has a single
// incidence code, so its census is key-for-key the plain graph's.
func TestTypedReducesToCore(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 15; trial++ {
		names := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		pb := graph.NewBuilderWithAlphabet(graph.MustAlphabet(names...))
		tb := graph.NewTypedBuilder(false)
		if err := tb.DeclareNodeLabels(names...); err != nil {
			t.Fatal(err)
		}
		n := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			l := names[rng.Intn(len(names))]
			pb.AddNode(l)
			tb.AddNode(l)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					pb.AddEdge(graph.NodeID(u), graph.NodeID(v))
					tb.AddEdge(graph.NodeID(v), graph.NodeID(u), "edge")
				}
			}
		}
		plain, typed := pb.MustBuild(), tb.MustBuild()

		root := graph.NodeID(rng.Intn(n))
		opts := Options{MaxEdges: 1 + rng.Intn(3), MaskRootLabel: rng.Intn(2) == 0}
		pe, err := NewExtractor(plain, opts)
		if err != nil {
			t.Fatal(err)
		}
		te, err := NewExtractor(typed, opts)
		if err != nil {
			t.Fatal(err)
		}
		pc, tc := pe.Census(root), te.Census(root)
		if !reflect.DeepEqual(pc.Counts, tc.Counts) {
			t.Fatalf("trial %d (root=%d opts=%+v):\n plain %v\n typed %v", trial, root, opts, pc.Counts, tc.Counts)
		}
	}
}

func TestTypedIncrementalHashMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		g := randomTyped(rng, 6+rng.Intn(6), 2, 2, trial%2 == 0, 0.3)
		e, err := NewExtractor(g, Options{MaxEdges: 3, MaskRootLabel: trial%3 == 0})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			for key := range e.Census(graph.NodeID(v)).Counts {
				s, ok := e.Decode(key)
				if !ok {
					t.Fatal("missing representative")
				}
				if got := e.pows.hashSequence(s); got != key {
					t.Fatalf("incremental %x != from-scratch %x", key, got)
				}
			}
		}
	}
}

func TestTypedCensusAllParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	g := randomTyped(rng, 30, 3, 2, true, 0.15)
	roots := make([]graph.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	e, _ := NewExtractor(g, Options{MaxEdges: 3})
	serial := e.CensusAll(roots, 1)
	parallel := e.CensusAll(roots, 4)
	for i := range roots {
		if !reflect.DeepEqual(serial[i].Counts, parallel[i].Counts) {
			t.Fatalf("root %d: parallel typed census differs", roots[i])
		}
	}
}

func TestTypedMaxSubgraphsPerRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomTyped(rng, 60, 2, 2, true, 0.05)
	full, _ := NewExtractor(g, Options{MaxEdges: 3})
	busy, small := graph.NodeID(0), graph.NodeID(0)
	counts := make([]int64, g.NumNodes())
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		counts[v] = full.Census(v).Subgraphs
		if counts[v] > counts[busy] {
			busy = v
		}
		if counts[v] < counts[small] {
			small = v
		}
	}
	// A budget between the smallest and the busiest root truncates one
	// and leaves the other complete.
	budget := (counts[small] + counts[busy]) / 2
	if budget <= counts[small] || budget >= counts[busy] {
		t.Fatalf("no budget separates roots with %d and %d subgraphs", counts[small], counts[busy])
	}
	capped, _ := NewExtractor(g, Options{MaxEdges: 3, MaxSubgraphsPerRoot: budget})
	c := capped.Census(busy)
	if !c.Truncated || c.Flags != FlagBudgetExceeded {
		t.Fatalf("census not truncated: flags %v", c.Flags)
	}
	if c.Subgraphs < budget || c.Subgraphs > budget+int64(g.NumNodes()) {
		t.Fatalf("truncated at %d, want ≈ %d", c.Subgraphs, budget)
	}
	// State stays clean for the next (small) root.
	got, err := CanonicalCounts(capped, capped.Census(small))
	if err != nil {
		t.Fatal(err)
	}
	if want := canonicalCensus(t, g, small, Options{MaxEdges: 3}); !reflect.DeepEqual(got, want) {
		t.Fatal("truncation leaked state into the next census")
	}
}

// canonicalDigest hashes every root's census as sorted (canonical key,
// count) lines.
func canonicalDigest(t *testing.T, g *graph.Graph, opts Options) string {
	t.Helper()
	ex, err := NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]graph.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	h := sha256.New()
	for _, c := range ex.CensusAll(roots, 0) {
		m, err := CanonicalCounts(ex, c)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%d %s %d\n", c.Root, k, m[k])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTypedCensusPinned pins typed censuses by canonical sequence (typed
// keys are not persisted anywhere, so only the counts are pinned).
func TestTypedCensusPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("deterministic full-graph digests; covered by the non-race run, 15x slower under -race")
	}
	net, err := datagen.GenerateCitation(datagen.DefaultCitationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalDigest(t, net.Graph, Options{MaxEdges: 3}),
		"355f8d7057a60f9b2f023fdc0bc14689bfa13d4515799a63941bbd925c1e7187"; got != want {
		t.Errorf("citation network census moved: digest %s, want %s", got, want)
	}

	// A directed multiplex graph with antiparallel arcs: 300 nodes over
	// three labels, six random arcs each over two edge labels.
	rng := rand.New(rand.NewSource(321))
	b := graph.NewTypedBuilder(true)
	b.DeclareNodeLabels("a", "b", "c")
	b.DeclareEdgeLabels("x", "y")
	const n = 300
	for i := 0; i < n; i++ {
		b.AddNode([]string{"a", "b", "c"}[rng.Intn(3)])
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 6; k++ {
			if v := rng.Intn(n); v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), []string{"x", "y"}[rng.Intn(2)])
			}
		}
	}
	if got, want := canonicalDigest(t, b.MustBuild(), Options{MaxEdges: 3, MaskRootLabel: true}),
		"afc3b38c0ad2ef93fe522b23da7d441e8eac0fb43f8a27a1c2b3abb69655851a"; got != want {
		t.Errorf("directed multiplex census moved: digest %s, want %s", got, want)
	}
}

func TestTypedSequenceString(t *testing.T) {
	b := graph.NewTypedBuilder(true)
	p1, _ := b.AddNode("p")
	p2, _ := b.AddNode("p")
	b.AddEdge(p1, p2, "cites")
	g := b.MustBuild()
	e, err := NewExtractor(g, Options{MaxEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Census(p1)
	if len(c.Counts) != 1 {
		t.Fatalf("counts = %v", c.Counts)
	}
	for key := range c.Counts {
		if got, want := e.EncodingString(key), "p|p/cites>:1;p|p/cites<:1"; got != want {
			t.Errorf("encoding %q, want %q", got, want)
		}
		s, _ := e.Decode(key)
		if s.M != 2 || s.NumNodes() != 2 || s.NumEdges() != 1 {
			t.Errorf("sequence %+v: want M=2, 2 nodes, 1 edge", s)
		}
	}
}

func TestTypedExtractorValidation(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomTyped(rand.New(rand.NewSource(1)), 5, 2, 1, directed, 0.5)
		if _, err := NewExtractor(g, Options{MaxEdges: 0}); err == nil {
			t.Errorf("directed=%v: MaxEdges 0 must be rejected", directed)
		}
		if _, err := NewExtractor(g, Options{MaxEdges: -1}); err == nil {
			t.Errorf("directed=%v: negative MaxEdges must be rejected", directed)
		}
	}
}

func ExampleExtractor_Census_directed() {
	// A two-hop citation chain: p1 -> p2 -> p3. Directed features let
	// the census distinguish citing from being cited.
	b := graph.NewTypedBuilder(true)
	p1, _ := b.AddNode("p")
	p2, _ := b.AddNode("p")
	p3, _ := b.AddNode("p")
	b.AddEdge(p1, p2, "cites")
	b.AddEdge(p2, p3, "cites")
	g, _ := b.Build()

	e, _ := NewExtractor(g, Options{MaxEdges: 2})
	c := e.Census(p2)
	fmt.Println("subgraphs:", c.Subgraphs)
	// The two single-arc subgraphs are isomorphic ("p cites p"), since
	// encodings do not mark the root; the chain is the third subgraph.
	fmt.Println("distinct:", len(c.Counts))
	var encs []string
	for key := range c.Counts {
		encs = append(encs, e.EncodingString(key))
	}
	fmt.Println(strings.Contains(strings.Join(encs, " "), "p|p/cites>:1,p/cites<:1"))
	// Output:
	// subgraphs: 3
	// distinct: 2
	// true
}

// TestTypedRefusals pins that every path persisting or rebuilding a
// graph in a format without the edge-type section refuses a typed graph
// with graph.ErrEdgeTyped and writes nothing.
func TestTypedRefusals(t *testing.T) {
	g := randomTyped(rand.New(rand.NewSource(9)), 8, 2, 2, true, 0.4)
	ex, err := NewExtractor(g, Options{MaxEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	censuses := ex.CensusAll([]graph.NodeID{0, 1}, 1)

	// Seed the store with one untyped graph generation, so "no new
	// generation" is observable.
	st := testStore(t)
	plain := graph.NewBuilder()
	plain.AddNode("a")
	if _, err := SaveGraphSnapshots(st, plain.MustBuild()); err != nil {
		t.Fatal(err)
	}
	gens := func() string {
		bin, err := st.Generations(ArtifactGraphBin)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(bin)
	}
	before := gens()
	ckpt := filepath.Join(t.TempDir(), "ckpt")

	cases := []struct {
		name string
		run  func() error
	}{
		{"graph.EncodeBinary", func() error { _, err := graph.EncodeBinary(g, 0); return err }},
		{"graph.PartitionByRoot", func() error {
			_, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 2})
			return err
		}},
		{"Overlay.Check", func() error { return graph.NewOverlay(g).Check([]graph.Mutation{{Op: graph.OpAddNode, Label: "a"}}) }},
		{"Overlay.Apply", func() error { return graph.NewOverlay(g).Apply(graph.Mutation{Op: graph.OpAddNode, Label: "a"}) }},
		{"Overlay.Materialize", func() error { _, err := graph.NewOverlay(g).Materialize(); return err }},
		{"SaveGraphSnapshots", func() error { _, err := SaveGraphSnapshots(st, g); return err }},
		{"NewFeatureSet", func() error { _, err := NewFeatureSet(ex, censuses, VocabularyOf(censuses)); return err }},
		{"CensusAllCheckpoint", func() error {
			_, err := ex.CensusAllCheckpoint(context.Background(), []graph.NodeID{0}, 1, CheckpointConfig{Path: ckpt})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, graph.ErrEdgeTyped) {
			t.Errorf("%s: got %v, want graph.ErrEdgeTyped", tc.name, err)
		}
	}
	if after := gens(); after != before {
		t.Errorf("store generations changed from %s to %s", before, after)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("refused checkpoint left a file behind (stat: %v)", err)
	}
}
