package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// censusCounts extracts every root's census from scratch on g and
// returns the canonical per-root key -> count maps.
func censusCounts(t *testing.T, g *graph.Graph, opts core.Options) []map[uint64]int64 {
	t.Helper()
	ex, err := core.NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]map[uint64]int64, g.NumNodes())
	for v := range out {
		out[v] = ex.Census(graph.NodeID(v)).Counts
	}
	return out
}

// assertChangedAreDirty fails unless every root whose from-scratch
// census differs between before and after — every root new in after
// included — is in dirty.
func assertChangedAreDirty(t *testing.T, label string, before, after []map[uint64]int64, dirty []graph.NodeID) {
	t.Helper()
	inBall := make(map[graph.NodeID]bool, len(dirty))
	for _, r := range dirty {
		inBall[r] = true
	}
	for v := range after {
		if inBall[graph.NodeID(v)] {
			continue
		}
		if v >= len(before) {
			t.Fatalf("%s: new root %d is not dirty", label, v)
		}
		if !sameCounts(before[v], after[v]) {
			t.Fatalf("%s: root %d census changed but the root is not dirty\nbefore: %v\nafter:  %v", label, v, before[v], after[v])
		}
	}
}

// randomBatch builds 1..4 random mutations that are valid against g in
// sequence (staged on a scratch overlay exactly like the engine does).
func randomBatch(rng *rand.Rand, g *graph.Graph) []graph.Mutation {
	overlay := graph.NewOverlay(g)
	var edges [][2]graph.NodeID
	g.Edges(func(u, v graph.NodeID) bool {
		edges = append(edges, [2]graph.NodeID{u, v})
		return true
	})
	labels := g.Alphabet().Names()
	var muts []graph.Mutation
	n := 1 + rng.Intn(4)
	for len(muts) < n {
		var m graph.Mutation
		switch rng.Intn(10) {
		case 0: // add_node, rare so the graph stays connected-ish
			m = graph.Mutation{Op: graph.OpAddNode, Label: labels[rng.Intn(len(labels))]}
		case 1, 2: // remove_edge
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			m = graph.Mutation{Op: graph.OpRemoveEdge, U: e[0], V: e[1]}
		case 3, 4, 5: // relabel
			v := graph.NodeID(rng.Intn(overlay.NumNodes()))
			m = graph.Mutation{Op: graph.OpRelabel, U: v, Label: labels[rng.Intn(len(labels))]}
		default: // add_edge
			u := graph.NodeID(rng.Intn(overlay.NumNodes()))
			v := graph.NodeID(rng.Intn(overlay.NumNodes()))
			m = graph.Mutation{Op: graph.OpAddEdge, U: u, V: v}
		}
		if overlay.Apply(m) == nil {
			muts = append(muts, m)
		}
	}
	return muts
}

// TestDifferentialRandomStream drives random mutation batches through
// the engine on a datagen publication graph and, after every batch,
// proves the reported dirty ball covers every root whose census
// changed: from-scratch censuses of the graph before and after the
// batch are compared root by root, and every root that differs (or is
// new) must be in Result.DirtyRoots. Readers that keep rows for clean
// roots rely on exactly this.
func TestDifferentialRandomStream(t *testing.T) {
	cfg := datagen.PublicationConfig{
		Institutions:      8,
		Conferences:       []string{"conf-a", "conf-b"},
		Years:             []int{2016, 2017},
		PapersPerConfYear: 6,
		FullPaperFrac:     0.7,
		Journals:          3,
		Fields:            5,
		ExternalPapers:    40,
		MaxAuthors:        3,
		CrossInstProb:     0.3,
		Seed:              7,
	}
	pub, err := datagen.GeneratePublication(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxEdges: 2}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Store: st, Opts: opts, CompactEvery: 5}, func() (*graph.Graph, error) {
		return pub.Graph, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	prev, _, _, _, _ := e.State()
	before := censusCounts(t, prev, opts)
	for batch := 0; batch < 12; batch++ {
		muts := randomBatch(rng, prev)
		res, err := e.Apply(ctx, fmt.Sprintf("diff-%d", batch), muts)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		after := censusCounts(t, res.Graph, opts)
		assertChangedAreDirty(t, fmt.Sprintf("batch %d", batch), before, after, res.DirtyRoots)
		prev, before = res.Graph, after
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("stream never exercised compaction")
	}
}

// TestDifferentialEmaxBoundary pins the dirty-ball radius on a path
// graph: a relabel at distance exactly emax from a root changes that
// root's census (the ball must include it), while distance emax+1
// cannot (the ball must exclude it) — including where the ball clips
// the end of the path.
func TestDifferentialEmaxBoundary(t *testing.T) {
	const emax = 3
	const n = 10 // path 0-1-...-9
	build := func(relabeled graph.NodeID) *graph.Graph {
		b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("x", "y"))
		for i := 0; i < n; i++ {
			l := "x"
			if graph.NodeID(i) == relabeled {
				l = "y"
			}
			if _, err := b.AddNode(l); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n-1; i++ {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return b.MustBuild()
	}
	opts := core.Options{MaxEdges: emax}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Store: st, Opts: opts}, func() (*graph.Graph, error) {
		return build(-1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Relabel node 9 (the path's end: its ball clips the graph edge).
	const touched = 9
	res, err := e.Apply(context.Background(), "boundary", []graph.Mutation{
		{Op: graph.OpRelabel, U: touched, Label: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}

	dirty := make(map[graph.NodeID]bool)
	for _, r := range res.DirtyRoots {
		dirty[r] = true
	}
	// Exactly the distance-≤emax ball: {9-emax, ..., 9}.
	for v := graph.NodeID(0); v < n; v++ {
		want := v >= touched-emax
		if dirty[v] != want {
			t.Errorf("node %d (distance %d): dirty=%v, want %v", v, touched-v, dirty[v], want)
		}
	}

	// The radius is semantically tight: from scratch, the root at
	// distance exactly emax has a CHANGED census and the root at emax+1
	// an unchanged one.
	before := censusCounts(t, build(-1), opts)
	after := censusCounts(t, res.Graph, opts)
	atEmax, beyond := touched-emax, touched-emax-1
	if sameCounts(before[atEmax], after[atEmax]) {
		t.Errorf("census of root at distance emax did not change; radius emax-1 would have sufficed")
	}
	if !sameCounts(before[beyond], after[beyond]) {
		t.Errorf("census of root at distance emax+1 changed; radius emax is too small")
	}
	// And every changed root is dirty.
	assertChangedAreDirty(t, "boundary", before, after, res.DirtyRoots)
}
