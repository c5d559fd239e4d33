package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// partitionTestGraph builds a connected labelled graph with hubs and
// periphery.
func partitionTestGraph(t testing.TB, n int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilderWithAlphabet(MustAlphabet("a", "b", "c"))
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(NodeID(rng.Intn(v)), NodeID(v)); err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(n)
		if u != v {
			if err := b.AddEdge(NodeID(v), NodeID(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.MustBuild()
}

func TestRootShardDeterministicAndBounded(t *testing.T) {
	for _, nShards := range []int{1, 2, 4, 7} {
		counts := make([]int, nShards)
		for v := NodeID(0); v < 4096; v++ {
			s := RootShard(v, nShards)
			if s < 0 || s >= nShards {
				t.Fatalf("RootShard(%d, %d) = %d out of range", v, nShards, s)
			}
			if s != RootShard(v, nShards) {
				t.Fatalf("RootShard(%d, %d) not deterministic", v, nShards)
			}
			counts[s]++
		}
		// Rendezvous hashing should balance within a loose factor; a
		// pathological skew means the mixer is broken.
		for s, c := range counts {
			if nShards > 1 && (c < 4096/nShards/2 || c > 4096/nShards*2) {
				t.Errorf("shard %d/%d holds %d of 4096 roots; rendezvous weight badly skewed", s, nShards, c)
			}
		}
	}
}

// TestRootShardConsistency: growing the shard count only moves roots
// whose winner is the new shard — the rendezvous property that makes
// resharding cheap.
func TestRootShardConsistency(t *testing.T) {
	moved, kept := 0, 0
	for v := NodeID(0); v < 4096; v++ {
		before := RootShard(v, 4)
		after := RootShard(v, 5)
		if after != before {
			if after != 4 {
				t.Fatalf("root %d moved %d -> %d when shard 4 was added; rendezvous consistency violated", v, before, after)
			}
			moved++
		} else {
			kept++
		}
	}
	if moved == 0 {
		t.Error("no root moved to the new shard; weight function is degenerate")
	}
	t.Logf("adding shard 5: %d/%d roots moved", moved, moved+kept)
}

func TestPartitionByRootCoversEveryNodeOnce(t *testing.T) {
	g := partitionTestGraph(t, 300, 7)
	for _, nShards := range []int{1, 4, 6} {
		plans, err := PartitionByRoot(g, PartitionConfig{NumShards: nShards})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) != nShards {
			t.Fatalf("%d plans, want %d", len(plans), nShards)
		}
		if err := ValidatePartition(g, plans); err != nil {
			t.Fatalf("nShards=%d: %v", nShards, err)
		}
		total := 0
		for _, p := range plans {
			total += len(p.OwnedRoots)
			if p.Graph != g {
				t.Fatalf("shard %d serves a copy, not the partitioned graph", p.Shard)
			}
		}
		if total != g.NumNodes() {
			t.Fatalf("nShards=%d: shards own %d roots, graph has %d nodes", nShards, total, g.NumNodes())
		}
	}
}

func TestPartitionRejectsBadConfig(t *testing.T) {
	g := partitionTestGraph(t, 10, 1)
	if _, err := PartitionByRoot(g, PartitionConfig{NumShards: 0, HaloDepth: 2}); err == nil {
		t.Error("NumShards=0 accepted")
	}
}

// TestValidatePartitionRejectsDamage: the partitioner's self-audit
// refuses a plan that serves another graph, owns a root twice or
// out of range, or drops an owned root.
func TestValidatePartitionRejectsDamage(t *testing.T) {
	g := partitionTestGraph(t, 60, 5)
	cases := []struct {
		name   string
		damage func(p *ShardPlan)
		want   string
	}{
		{"another graph", func(p *ShardPlan) { p.Graph = partitionTestGraph(t, 60, 5) }, "does not serve"},
		{"out-of-range root", func(p *ShardPlan) { p.OwnedRoots = append(p.OwnedRoots, NodeID(g.NumNodes())) }, "out-of-range root"},
		{"owned root missing", func(p *ShardPlan) { p.OwnedRoots = p.OwnedRoots[1:] }, "owned by no shard"},
		{"owned root twice", func(p *ShardPlan) {
			p.OwnedRoots = append([]NodeID{p.OwnedRoots[0]}, p.OwnedRoots...)
		}, "not ascending"},
	}
	for _, tc := range cases {
		plans, err := PartitionByRoot(g, PartitionConfig{NumShards: 3})
		if err != nil {
			t.Fatal(err)
		}
		tc.damage(plans[1])
		if err := ValidatePartition(g, plans); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ValidatePartition = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
