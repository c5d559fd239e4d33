package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// partitionTestGraph builds a connected labelled graph with hubs and
// periphery, the shape shard halos have to cope with.
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
		plans, err := PartitionByRoot(g, PartitionConfig{NumShards: nShards, HaloDepth: 2})
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
			if err := p.Graph.Validate(); err != nil {
				t.Fatalf("shard %d graph invalid: %v", p.Shard, err)
			}
		}
		if total != g.NumNodes() {
			t.Fatalf("nShards=%d: shards own %d roots, graph has %d nodes", nShards, total, g.NumNodes())
		}
	}
}

// TestPartitionHaloIsExactlyKHop: a shard's node set must be the union
// of the distance-<=HaloDepth balls of its owned roots — nothing
// missing (correctness) and nothing extra (snapshot bloat).
func TestPartitionHaloIsExactlyKHop(t *testing.T) {
	g := partitionTestGraph(t, 200, 3)
	const halo = 2
	plans, err := PartitionByRoot(g, PartitionConfig{NumShards: 4, HaloDepth: halo})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		want := map[NodeID]bool{}
		for _, r := range p.OwnedRoots {
			for _, v := range KHop(g, r, halo) {
				want[v] = true
			}
		}
		have := map[NodeID]bool{}
		for _, global := range p.LocalToGlobal {
			have[global] = true
		}
		if len(have) != len(want) {
			t.Fatalf("shard %d holds %d nodes, want %d", p.Shard, len(have), len(want))
		}
		for v := range want {
			if !have[v] {
				t.Fatalf("shard %d missing halo node %d", p.Shard, v)
			}
		}
	}
}

// TestPartitionHaloPreservesInteriorDegrees: every node strictly inside
// the halo (distance <= HaloDepth-1 of an owned root) must keep its
// full-graph degree in the shard graph — the property dmax pruning
// depends on.
func TestPartitionHaloPreservesInteriorDegrees(t *testing.T) {
	g := partitionTestGraph(t, 200, 11)
	const halo = 3
	plans, err := PartitionByRoot(g, PartitionConfig{NumShards: 4, HaloDepth: halo})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		interior := map[NodeID]bool{}
		for _, r := range p.OwnedRoots {
			for _, v := range KHop(g, r, halo-1) {
				interior[v] = true
			}
		}
		g2l, err := denseGlobalToLocal(p, g.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		for v := range interior {
			if p.Graph.Degree(g2l[v]) != g.Degree(v) {
				t.Fatalf("shard %d: interior node %d degree %d, full graph %d",
					p.Shard, v, p.Graph.Degree(g2l[v]), g.Degree(v))
			}
		}
	}
}

func TestPartitionRejectsBadConfig(t *testing.T) {
	g := partitionTestGraph(t, 10, 1)
	if _, err := PartitionByRoot(g, PartitionConfig{NumShards: 0, HaloDepth: 2}); err == nil {
		t.Error("NumShards=0 accepted")
	}
	if _, err := PartitionByRoot(g, PartitionConfig{NumShards: 2, HaloDepth: 0}); err == nil {
		t.Error("HaloDepth=0 accepted")
	}
}

// TestValidatePartitionRejectsDamage: the partitioner's self-audit
// reads each plan through a dense global-to-local table, so a plan that
// maps an out-of-range global is refused, and so is one whose graph
// lost an owned root.
func TestValidatePartitionRejectsDamage(t *testing.T) {
	g := partitionTestGraph(t, 60, 5)
	cases := []struct {
		name   string
		damage func(p *ShardPlan)
		want   string
	}{
		{"out-of-range global", func(p *ShardPlan) {
			p.LocalToGlobal = append(append([]NodeID(nil), p.LocalToGlobal...), NodeID(g.NumNodes()))
		}, "out-of-range global"},
		{"owned root missing", func(p *ShardPlan) {
			l2g := make([]NodeID, 0, len(p.LocalToGlobal))
			for _, v := range p.LocalToGlobal {
				if v != p.OwnedRoots[0] {
					l2g = append(l2g, v)
				}
			}
			p.LocalToGlobal = l2g
		}, "does not contain it"},
	}
	for _, tc := range cases {
		plans, err := PartitionByRoot(g, PartitionConfig{NumShards: 3, HaloDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		tc.damage(plans[1])
		if err := ValidatePartition(g, plans); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ValidatePartition = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
