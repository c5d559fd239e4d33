package ingest

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"hsgf/internal/graph"
)

// TestSnapshotBytesPinned pins the ingest snapshot's on-disk bytes: the
// [meta, ingestmeta, graph, featureset] framing and every payload
// encoding. A change here strands every store's compacted ingest state,
// so it must come with an ingestSchema bump, not by accident.
func TestSnapshotBytesPinned(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.CompactEvery = 2
	e := openEngine(t, cfg)
	batches := [][]graph.Mutation{
		{{Op: graph.OpAddNode, Label: "org"}, {Op: graph.OpAddEdge, U: 4, V: 0}},
		{{Op: graph.OpAddEdge, U: 0, V: 2}},
		{{Op: graph.OpRelabel, U: 3, Label: "act"}},
		{{Op: graph.OpRemoveEdge, U: 1, V: 3}},
		{{Op: graph.OpAddNode, Label: "act"}, {Op: graph.OpAddEdge, U: 5, V: 3}},
		{{Op: graph.OpAddEdge, U: 4, V: 2}},
	}
	for i, muts := range batches {
		if _, err := e.Apply(context.Background(), fmt.Sprintf("b%d", i), muts); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want := []string{
		"2743a5d7bf76b4673d40157c6002e876d2db6a14caa27dd75084f72d6f160cd9",
		"b4a8a7a2ced908bc99ed8aa7ac77df545198b37353448e9c1f045fe7bcc3b02d",
		"18dc5c8500cff1df18992dd31e5aff12285d81b60d516816c4bd9e49fdedc49b",
		"016a38ac4a7a93f50b24032920bb454eb25003db5198f37d629694cda41e9479",
	}
	for i, sum := range want {
		data, err := os.ReadFile(cfg.Store.Path(ArtifactIngest, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("generation %d: sha256 %s, want %s", i+1, got, sum)
		}
	}
}
