package core

import (
	"math/rand"
	"testing"

	"hsgf/internal/graph"
)

// These differential tests pin the property the whole sharded serving
// tier rests on: a census extracted inside a shard's halo snapshot is
// byte-equivalent to the census the full graph produces for the same
// root. A subgraph with at most emax edges never leaves the root's
// distance-<=emax ball, so a halo of depth >= emax (>= emax+1 under
// dmax pruning, which consults full-graph degrees) captures everything
// enumeration can touch.

func shardingTestGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("loc", "org", "act"))
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(graph.Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			u := rng.Intn(n)
			if u != v {
				if err := b.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.MustBuild()
}

// decodedCounts renders a census as decoded-encoding -> count, the
// graph-independent comparison key (raw hash keys are also identical
// across extractors, but the decoded form localises failures).
func decodedCounts(ex *Extractor, c *Census) map[string]int64 {
	out := make(map[string]int64, len(c.Counts))
	for key, count := range c.Counts {
		out[ex.EncodingString(key)] += count
	}
	return out
}

func assertShardCensusEquivalence(t *testing.T, g *graph.Graph, opts Options, haloDepth, nShards int) {
	t.Helper()
	fullEx, err := NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: nShards, HaloDepth: haloDepth})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidatePartition(g, plans); err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		shardEx, err := NewExtractor(p.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		g2l := make([]graph.NodeID, g.NumNodes())
		for local, global := range p.LocalToGlobal {
			g2l[global] = graph.NodeID(local)
		}
		for _, root := range p.OwnedRoots {
			full := fullEx.Census(root)
			shard := shardEx.Census(g2l[root])
			if full.Subgraphs != shard.Subgraphs {
				t.Fatalf("shard %d root %d: %d subgraphs in shard, %d in full graph",
					p.Shard, root, shard.Subgraphs, full.Subgraphs)
			}
			fullC, shardC := decodedCounts(fullEx, full), decodedCounts(shardEx, shard)
			if len(fullC) != len(shardC) {
				t.Fatalf("shard %d root %d: %d encodings in shard, %d in full graph",
					p.Shard, root, len(shardC), len(fullC))
			}
			for enc, n := range fullC {
				if shardC[enc] != n {
					t.Fatalf("shard %d root %d: encoding %s = %d in shard, %d in full graph",
						p.Shard, root, enc, shardC[enc], n)
				}
			}
		}
	}
}

// TestShardCensusEquivalence: halo depth == emax, no dmax — every owned
// root's census over the shard snapshot matches the full graph exactly.
func TestShardCensusEquivalence(t *testing.T) {
	g := shardingTestGraph(t, 220, 5)
	assertShardCensusEquivalence(t, g, Options{MaxEdges: 3}, 3, 4)
}

// TestShardCensusEquivalenceWithDmax: with hub pruning active the halo
// needs one extra hop so boundary nodes keep their true degrees.
func TestShardCensusEquivalenceWithDmax(t *testing.T) {
	g := shardingTestGraph(t, 220, 9)
	dmax := graph.DegreePercentile(g, 0.9)
	assertShardCensusEquivalence(t, g, Options{MaxEdges: 3, MaxDegree: dmax}, 4, 4)
}

// TestShardCensusEquivalenceMaskedRoot: root-label masking rides along
// unchanged through the partition.
func TestShardCensusEquivalenceMaskedRoot(t *testing.T) {
	g := shardingTestGraph(t, 150, 13)
	assertShardCensusEquivalence(t, g, Options{MaxEdges: 2, MaskRootLabel: true}, 2, 5)
}
