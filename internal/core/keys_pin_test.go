package core_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// TestUntypedCensusKeysPinned pins untyped census keys bit for bit: keys
// are persisted in feature sets and checkpoints and cached by the serving
// tier, so a change to the hash seed, salts, power table or encoding
// layout must fail here. (Typed censuses are pinned by canonical
// sequence in TestTypedCensusPinned.)
func TestUntypedCensusKeysPinned(t *testing.T) {
	g := benchPublication(t)
	if g.NumNodes() != 1238 || g.NumEdges() != 4313 {
		t.Fatalf("publication graph drifted: %v", g)
	}
	ex := benchExtractor(t, g, core.Options{MaxEdges: 3, MaskRootLabel: true})
	h := sha256.New()
	roots := make([]graph.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	for _, c := range ex.CensusAll(roots, 0) {
		keys := make([]uint64, 0, len(c.Counts))
		for k := range c.Counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			fmt.Fprintf(h, "%d %016x %d\n", c.Root, k, c.Counts[k])
		}
	}
	const want = "5db951cb100dd22f57a9293d7ca5d861b36124c602d8bbe151270ad3007b3854"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("untyped census keys moved: digest %s, want %s", got, want)
	}
}
