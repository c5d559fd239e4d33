package hsgf

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func buildExampleGraph(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	b := NewBuilder()
	var nodes []NodeID
	// Two institutions, three authors, two papers.
	i1, _ := b.AddNode("institution")
	i2, _ := b.AddNode("institution")
	a1, _ := b.AddNode("author")
	a2, _ := b.AddNode("author")
	a3, _ := b.AddNode("author")
	p1, _ := b.AddNode("paper")
	p2, _ := b.AddNode("paper")
	for _, e := range [][2]NodeID{{i1, a1}, {i1, a2}, {i2, a3}, {a1, p1}, {a2, p1}, {a3, p1}, {a3, p2}, {p1, p2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, i1, i2, a1, a2, a3, p1, p2)
	return g, nodes
}

func TestFacadeEndToEnd(t *testing.T) {
	g, nodes := buildExampleGraph(t)
	if g.NumLabels() != 3 || g.NumNodes() != 7 {
		t.Fatalf("unexpected example graph %v", g)
	}

	x, vocab, ex, err := ExtractFeatures(g, nodes, Options{MaxEdges: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != len(nodes) {
		t.Fatalf("rows = %d, want %d", len(x), len(nodes))
	}
	if vocab.Len() == 0 {
		t.Fatal("empty vocabulary")
	}
	if len(x[0]) != vocab.Len() {
		t.Fatal("matrix width mismatch")
	}
	// Every column decodes to a readable encoding.
	for c := 0; c < vocab.Len(); c++ {
		enc := ex.EncodingString(vocab.Key(c))
		if enc == "" || enc[0] == '?' {
			t.Errorf("column %d does not decode: %q", c, enc)
		}
	}
}

func TestFacadeTSVRoundTrip(t *testing.T) {
	g, _ := buildExampleGraph(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip mismatch")
	}
}

func TestFacadeHelpers(t *testing.T) {
	g, _ := buildExampleGraph(t)
	lc := LabelConnectivityOf(g)
	if !lc.HasSelfLoop() {
		t.Error("paper-paper citation edge should induce a self loop")
	}
	if d := DegreePercentile(g, 1.0); d != g.MaxDegree() {
		t.Errorf("p100 degree %d != max %d", d, g.MaxDegree())
	}
	opts := DefaultOptions()
	if opts.MaxEdges != 5 || !opts.MaskRootLabel {
		t.Errorf("DefaultOptions = %+v does not match the paper", opts)
	}
	if _, err := NewAlphabet("a", "a"); err == nil {
		t.Error("duplicate alphabet names must fail")
	}
	if v := NewVocabulary(); v.Len() != 0 {
		t.Error("new vocabulary not empty")
	}
}

func TestFacadeFeatureSetRoundTrip(t *testing.T) {
	g, nodes := buildExampleGraph(t)
	ex, err := NewExtractor(g, Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	censuses := ex.CensusAll(nodes, 2)
	vocab := VocabularyOf(censuses)
	fs, err := NewFeatureSet(ex, censuses, vocab)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := ReadFeatureSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs2.Features) != vocab.Len() || len(fs2.Rows) != len(nodes) {
		t.Fatalf("round trip shape mismatch: %d features %d rows", len(fs2.Features), len(fs2.Rows))
	}
	dense := fs2.Dense()
	want := Matrix(censuses, vocab)
	for i := range dense {
		for j := range dense[i] {
			if dense[i][j] != want[i][j] {
				t.Fatal("Dense disagrees with Matrix")
			}
		}
	}
}

func TestFacadeSamplingHelpers(t *testing.T) {
	g, nodes := buildExampleGraph(t)
	rng := rand.New(rand.NewSource(1))
	sample := SampleRoots(g, 1, rng)
	if len(sample) != g.NumLabels() {
		t.Fatalf("sampled %d roots, want one per label (%d)", len(sample), g.NumLabels())
	}
	kept := FilterRootsByDegree(g, nodes, 0.99)
	if len(kept) >= len(nodes) {
		t.Error("degree filter should drop the top-degree node")
	}
}

func TestFacadeTypedAPI(t *testing.T) {
	// Typed TSV input reaches the one Extractor with direction-aware
	// features.
	tg, err := ReadTSV(strings.NewReader("t\tdirected\nn\tp\nn\tp\ne\t0\t1\tcites\n"))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(tg, Options{MaxEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := ex.Census(0)
	if c.Subgraphs != 1 {
		t.Errorf("typed census = %d subgraphs, want 1", c.Subgraphs)
	}
	for key := range c.Counts {
		if got, want := ex.EncodingString(key), "p|p/cites>:1;p|p/cites<:1"; got != want {
			t.Errorf("typed encoding %q, want %q", got, want)
		}
	}

	// Lifting a plain graph to the typed format with a single undirected
	// edge label preserves censuses key for key.
	g, nodes := buildExampleGraph(t)
	var plainTSV bytes.Buffer
	if err := WriteTSV(&plainTSV, g); err != nil {
		t.Fatal(err)
	}
	lifted := "t\tundirected\n"
	for _, line := range strings.Split(strings.TrimSpace(plainTSV.String()), "\n") {
		if strings.HasPrefix(line, "e\t") {
			line += "\tedge"
		}
		lifted += line + "\n"
	}
	plain, err := ReadTSV(&plainTSV)
	if err != nil {
		t.Fatal(err)
	}
	typedG, err := ReadTSV(strings.NewReader(lifted))
	if err != nil {
		t.Fatal(err)
	}
	plainEx, _ := NewExtractor(plain, Options{MaxEdges: 2})
	typedEx, _ := NewExtractor(typedG, Options{MaxEdges: 2})
	for _, v := range nodes {
		if !reflect.DeepEqual(plainEx.Census(v).Counts, typedEx.Census(v).Counts) {
			t.Fatalf("typed lift changes the census at node %d", v)
		}
	}
}

func ExampleExtractFeatures() {
	// Single-character label names render in the paper's compact
	// encoding notation (e.g. "p100a010").
	b := NewBuilder()
	alice, _ := b.AddNode("a") // author
	paper, _ := b.AddNode("p") // paper
	venue, _ := b.AddNode("v") // venue
	b.AddEdge(alice, paper)
	b.AddEdge(paper, venue)
	g, _ := b.Build()

	x, vocab, ex, _ := ExtractFeatures(g, []NodeID{alice}, Options{MaxEdges: 2}, 1)
	fmt.Println("features:", vocab.Len())
	lines := make([]string, vocab.Len())
	for c := 0; c < vocab.Len(); c++ {
		lines[c] = fmt.Sprintf("%s -> %.0f", ex.EncodingString(vocab.Key(c)), x[0][c])
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// features: 2
	// p100a010 -> 1
	// v010p101a010 -> 1
}
