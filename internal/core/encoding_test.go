package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hsgf/internal/graph"
)

// figure1B builds the paper's Figure 1B example: a path z–y–z over the
// alphabet {x, y, z}.
func figure1B(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("x", "y", "z"))
	z1, _ := b.AddNode("z")
	y, _ := b.AddNode("y")
	z2, _ := b.AddNode("z")
	if err := b.AddEdge(z1, y); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(y, z2); err != nil {
		t.Fatal(err)
	}
	return b.MustBuild(), []graph.NodeID{z1, y, z2}
}

func TestSequencePaperExample(t *testing.T) {
	g, nodes := figure1B(t)
	edges := [][2]graph.NodeID{{nodes[0], nodes[1]}, {nodes[1], nodes[2]}}
	s := SequenceOf(g, nodes, edges, g.NumLabels(), -1, -1)

	if s.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", s.NumNodes())
	}
	if s.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", s.NumEdges())
	}
	// The paper's encoding for this subgraph is z010 z010 y002.
	got := s.String(func(l int) string { return []string{"x", "y", "z"}[l] })
	if got != "z010z010y002" {
		t.Errorf("encoding = %q, want z010z010y002", got)
	}
}

func TestSequenceOrderInvariance(t *testing.T) {
	g, nodes := figure1B(t)
	edges := [][2]graph.NodeID{{nodes[0], nodes[1]}, {nodes[1], nodes[2]}}
	s1 := SequenceOf(g, nodes, edges, 3, -1, -1)
	// Present the same subgraph with permuted node and edge order.
	perm := []graph.NodeID{nodes[2], nodes[0], nodes[1]}
	edgesPerm := [][2]graph.NodeID{{nodes[2], nodes[1]}, {nodes[1], nodes[0]}}
	s2 := SequenceOf(g, perm, edgesPerm, 3, -1, -1)
	if !s1.Equal(s2) {
		t.Errorf("sequences differ under node/edge permutation: %v vs %v", s1.Values, s2.Values)
	}
}

func TestSequenceRootMasking(t *testing.T) {
	g, nodes := figure1B(t)
	edges := [][2]graph.NodeID{{nodes[0], nodes[1]}, {nodes[1], nodes[2]}}
	k := g.NumLabels() + 1
	masked := SequenceOf(g, nodes, edges, k, nodes[0], graph.Label(3))
	plain := SequenceOf(g, nodes, edges, k, -1, -1)
	if masked.Equal(plain) {
		t.Error("masking the root label must change the encoding")
	}
	// The masked slot must appear exactly once as a node label.
	count := 0
	for i := 0; i < masked.NumNodes(); i++ {
		if masked.Node(i)[0] == 3 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("masked label appears %d times, want 1", count)
	}
}

func TestSequenceStringFallback(t *testing.T) {
	g, nodes := figure1B(t)
	edges := [][2]graph.NodeID{{nodes[0], nodes[1]}, {nodes[1], nodes[2]}}
	s := SequenceOf(g, nodes, edges, 3, -1, -1)
	long := s.String(func(l int) string { return []string{"ex", "why", "zed"}[l] })
	if long == "" || long == "z010z010y002" {
		t.Errorf("multi-char label rendering should use delimited form, got %q", long)
	}
}

func TestParseCompactRoundTrip(t *testing.T) {
	g, nodes := figure1B(t)
	edges := [][2]graph.NodeID{{nodes[0], nodes[1]}, {nodes[1], nodes[2]}}
	s := SequenceOf(g, nodes, edges, 3, -1, -1)
	names := []string{"x", "y", "z"}
	enc := s.String(func(l int) string { return names[l] })
	parsed, err := ParseCompact(enc, 3, func(n string) (int, bool) {
		for i, v := range names {
			if v == n {
				return i, true
			}
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(s) {
		t.Errorf("round trip mismatch: %v vs %v", parsed.Values, s.Values)
	}
}

func TestParseCompactErrors(t *testing.T) {
	idx := func(n string) (int, bool) {
		if n == "a" {
			return 0, true
		}
		return 0, false
	}
	if _, err := ParseCompact("a0a", 1, idx); err == nil {
		t.Error("expected length error")
	}
	if _, err := ParseCompact("b0", 1, idx); err == nil {
		t.Error("expected unknown label error")
	}
	if _, err := ParseCompact("ax", 1, idx); err == nil {
		t.Error("expected bad digit error")
	}
}

func TestRollingHashMatchesSequenceHash(t *testing.T) {
	// Property: the rolling hash computed from any canonical sequence is
	// invariant under permutations of the per-node rows (the sum is order
	// independent).
	rng := rand.New(rand.NewSource(5))
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	pows := newPowerTable(4, 1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		vals := make([]int32, 0, n*5)
		for i := 0; i < n; i++ {
			vals = append(vals, int32(r.Intn(4)))
			for j := 0; j < 4; j++ {
				vals = append(vals, int32(r.Intn(5)))
			}
		}
		s := Sequence{K: 4, Values: append([]int32(nil), vals...)}
		h1 := pows.hashSequence(s)
		// Shuffle rows.
		rows := make([][]int32, n)
		for i := 0; i < n; i++ {
			rows[i] = vals[i*5 : (i+1)*5]
		}
		r.Shuffle(n, func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		shuffled := make([]int32, 0, len(vals))
		for _, row := range rows {
			shuffled = append(shuffled, row...)
		}
		h2 := pows.hashSequence(Sequence{K: 4, Values: shuffled})
		return h1 == h2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPowerTableDistinctBases(t *testing.T) {
	pows := newPowerTable(8, 1)
	seen := make(map[uint64]bool)
	for l := 0; l < 8; l++ {
		b := pows.pow[l][1]
		if b%2 == 0 {
			t.Errorf("base for label %d is even: %d", l, b)
		}
		if seen[b] {
			t.Errorf("duplicate base %d", b)
		}
		seen[b] = true
	}
	// Deterministic across constructions.
	pows2 := newPowerTable(8, 1)
	for l := 0; l < 8; l++ {
		if pows.pow[l][3] != pows2.pow[l][3] {
			t.Error("power table not deterministic")
		}
	}
}
