package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// applyGlobal applies muts to g through an overlay, returning the
// mutated graph — the from-scratch oracle's input.
func applyGlobal(t *testing.T, g *Graph, muts []Mutation) *Graph {
	t.Helper()
	o := NewOverlay(g)
	for i, m := range muts {
		if err := o.Apply(m); err != nil {
			t.Fatalf("global mutation %d (%v): %v", i, m.Op, err)
		}
	}
	out, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// maintainedShard tracks one shard the way a fleet replica would: the
// shard graph evolved by applying each ShardDelta sub-batch through an
// overlay, plus the local->global mapping grown from NewNodes.
type maintainedShard struct {
	g   *Graph
	l2g []NodeID
}

func newMaintainedShards(t *testing.T, g *Graph, cfg PartitionConfig) []*maintainedShard {
	t.Helper()
	plans, err := PartitionByRoot(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*maintainedShard, len(plans))
	for i, p := range plans {
		l2g := make([]NodeID, len(p.LocalToGlobal))
		copy(l2g, p.LocalToGlobal)
		out[i] = &maintainedShard{g: p.Graph, l2g: l2g}
	}
	return out
}

func (ms *maintainedShard) apply(t *testing.T, d ShardDelta) {
	t.Helper()
	o := NewOverlay(ms.g)
	for i, m := range d.Muts {
		if err := o.Apply(m); err != nil {
			t.Fatalf("shard %d sub-batch mutation %d (%v %d-%d): %v", d.Shard, i, m.Op, m.U, m.V, err)
		}
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != len(ms.l2g)+len(d.NewNodes) {
		t.Fatalf("shard %d grew to %d nodes, delta promised %d new over %d", d.Shard, g.NumNodes(), len(d.NewNodes), len(ms.l2g))
	}
	ms.g = g
	ms.l2g = append(ms.l2g, d.NewNodes...)
}

// edgeSet returns the graph's edges as global-ID keys via l2g.
func (ms *maintainedShard) edgeSet() map[[2]NodeID]struct{} {
	out := make(map[[2]NodeID]struct{}, ms.g.NumEdges())
	ms.g.Edges(func(u, v NodeID) bool {
		out[edgeKey(ms.l2g[u], ms.l2g[v])] = struct{}{}
		return true
	})
	return out
}

// randomMutationStream generates batches of valid mutations against an
// evolving overlay view. withRemovals also deletes random edges.
func randomMutationStream(t *testing.T, g *Graph, rng *rand.Rand, batches, perBatch int, withRemovals bool) [][]Mutation {
	t.Helper()
	labels := g.Alphabet().Names()
	// Track the evolving combined state just enough to generate valid
	// mutations: node count and the live edge set.
	nodes := g.NumNodes()
	edges := make(map[[2]NodeID]struct{})
	g.Edges(func(u, v NodeID) bool {
		edges[edgeKey(u, v)] = struct{}{}
		return true
	})
	live := make([][2]NodeID, 0, len(edges))
	for k := range edges {
		live = append(live, k)
	}

	var out [][]Mutation
	for b := 0; b < batches; b++ {
		var batch []Mutation
		for m := 0; m < perBatch; m++ {
			switch op := rng.Intn(10); {
			case op == 0:
				batch = append(batch, Mutation{Op: OpAddNode, Label: labels[rng.Intn(len(labels))], Name: fmt.Sprintf("n%d", nodes)})
				nodes++
			case op == 1:
				batch = append(batch, Mutation{Op: OpRelabel, U: NodeID(rng.Intn(nodes)), Label: labels[rng.Intn(len(labels))]})
			case withRemovals && op == 2 && len(live) > 0:
				i := rng.Intn(len(live))
				k := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(edges, k)
				batch = append(batch, Mutation{Op: OpRemoveEdge, U: k[0], V: k[1]})
			default:
				for try := 0; try < 32; try++ {
					u, v := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
					if u == v {
						continue
					}
					k := edgeKey(u, v)
					if _, dup := edges[k]; dup {
						continue
					}
					edges[k] = struct{}{}
					live = append(live, k)
					batch = append(batch, Mutation{Op: OpAddEdge, U: u, V: v})
					break
				}
			}
		}
		if len(batch) > 0 {
			out = append(out, batch)
		}
	}
	return out
}

// TestShardMapInitialStateMatchesManifest: the local-ID assignment of a
// freshly built ShardMap must agree with PartitionByRoot + Induced —
// the manifest the fleet was provisioned from.
func TestShardMapInitialStateMatchesManifest(t *testing.T) {
	g := partitionTestGraph(t, 250, 11)
	cfg := PartitionConfig{NumShards: 4, HaloDepth: 3}
	plans, err := PartitionByRoot(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShardMap(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sm.NumNodes() != g.NumNodes() || sm.NumEdges() != g.NumEdges() {
		t.Fatalf("shard map reports %d nodes %d edges, graph has %d/%d", sm.NumNodes(), sm.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, p := range plans {
		if sm.ShardSize(p.Shard) != len(p.LocalToGlobal) {
			t.Fatalf("shard %d: map has %d members, plan has %d", p.Shard, sm.ShardSize(p.Shard), len(p.LocalToGlobal))
		}
		for local, global := range p.LocalToGlobal {
			got, ok := sm.LocalID(p.Shard, global)
			if !ok || got != NodeID(local) {
				t.Fatalf("shard %d: global %d -> local %d (present %v), plan says %d", p.Shard, global, got, ok, local)
			}
		}
	}
}

// TestShardMapHaloRepairMatchesRepartition is the halo-invariant
// property test: apply a random add-only mutation stream through the
// ShardMap (maintaining per-shard graphs from its sub-batches) and the
// result must be IDENTICAL — same global node sets, same global edge
// sets, same labels — to repartitioning the mutated graph from scratch.
func TestShardMapHaloRepairMatchesRepartition(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		shards int
		halo   int
	}{
		{seed: 1, shards: 3, halo: 2},
		{seed: 2, shards: 4, halo: 3},
		{seed: 3, shards: 2, halo: 4},
		{seed: 4, shards: 5, halo: 2},
	} {
		t.Run(fmt.Sprintf("seed%d_s%d_h%d", tc.seed, tc.shards, tc.halo), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			g := partitionTestGraph(t, 120+rng.Intn(120), tc.seed)
			cfg := PartitionConfig{NumShards: tc.shards, HaloDepth: tc.halo}
			sm, err := NewShardMap(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards := newMaintainedShards(t, g, cfg)
			stream := randomMutationStream(t, g, rng, 12, 8, false)

			var all []Mutation
			for _, batch := range stream {
				deltas, err := sm.Apply(batch)
				if err != nil {
					t.Fatalf("Apply: %v", err)
				}
				for _, d := range deltas {
					shards[d.Shard].apply(t, d)
				}
				all = append(all, batch...)
			}

			mutated := applyGlobal(t, g, all)
			plans, err := PartitionByRoot(mutated, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s, p := range plans {
				ms := shards[s]
				if len(ms.l2g) != len(p.LocalToGlobal) {
					t.Fatalf("shard %d: maintained %d members, from-scratch %d", s, len(ms.l2g), len(p.LocalToGlobal))
				}
				want := make(map[NodeID]struct{}, len(p.LocalToGlobal))
				for _, v := range p.LocalToGlobal {
					want[v] = struct{}{}
				}
				for local, global := range ms.l2g {
					if _, ok := want[global]; !ok {
						t.Fatalf("shard %d: maintained member %d absent from from-scratch partition", s, global)
					}
					if ms.g.Label(NodeID(local)) != mutated.Label(global) {
						t.Fatalf("shard %d: node %d label diverged", s, global)
					}
				}
				wantEdges := make(map[[2]NodeID]struct{}, p.Graph.NumEdges())
				p.Graph.Edges(func(u, v NodeID) bool {
					wantEdges[edgeKey(p.LocalToGlobal[u], p.LocalToGlobal[v])] = struct{}{}
					return true
				})
				gotEdges := ms.edgeSet()
				if len(gotEdges) != len(wantEdges) {
					t.Fatalf("shard %d: maintained %d edges, from-scratch %d", s, len(gotEdges), len(wantEdges))
				}
				for k := range wantEdges {
					if _, ok := gotEdges[k]; !ok {
						t.Fatalf("shard %d: edge %d-%d missing from maintained graph", s, k[0], k[1])
					}
				}
			}
		})
	}
}

// TestShardMapRemovalKeepsSupersetInvariant: with removals in the
// stream, membership never shrinks, so the maintained shard must be a
// SUPERSET of the from-scratch partition — and still an exact induced
// subgraph of the mutated global graph, which is what preserves census
// correctness for owned roots.
func TestShardMapRemovalKeepsSupersetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := partitionTestGraph(t, 200, 99)
	cfg := PartitionConfig{NumShards: 4, HaloDepth: 3}
	sm, err := NewShardMap(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := newMaintainedShards(t, g, cfg)
	stream := randomMutationStream(t, g, rng, 15, 8, true)

	var all []Mutation
	for _, batch := range stream {
		deltas, err := sm.Apply(batch)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		for _, d := range deltas {
			shards[d.Shard].apply(t, d)
		}
		all = append(all, batch...)
	}

	mutated := applyGlobal(t, g, all)
	plans, err := PartitionByRoot(mutated, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range plans {
		ms := shards[s]
		members := make(map[NodeID]NodeID, len(ms.l2g)) // global -> local
		for local, global := range ms.l2g {
			members[global] = NodeID(local)
		}
		// Superset: every from-scratch member is maintained.
		for _, global := range p.LocalToGlobal {
			if _, ok := members[global]; !ok {
				t.Fatalf("shard %d: from-scratch member %d missing from maintained superset", s, global)
			}
		}
		// Exact induced subgraph: edge present in the shard iff both
		// endpoints are members and the edge exists globally.
		gotEdges := ms.edgeSet()
		wantEdges := make(map[[2]NodeID]struct{})
		for global := range members {
			for _, w := range mutated.Neighbors(global) {
				if _, ok := members[w]; ok {
					wantEdges[edgeKey(global, w)] = struct{}{}
				}
			}
		}
		if len(gotEdges) != len(wantEdges) {
			t.Fatalf("shard %d: maintained %d edges, induced wants %d", s, len(gotEdges), len(wantEdges))
		}
		for k := range wantEdges {
			if _, ok := gotEdges[k]; !ok {
				t.Fatalf("shard %d: induced edge %d-%d missing", s, k[0], k[1])
			}
		}
		// Labels track the global graph.
		for global, local := range members {
			if ms.g.Label(local) != mutated.Label(global) {
				t.Fatalf("shard %d: node %d label diverged", s, global)
			}
		}
	}
}

// TestShardMapApplyDeterministic: two ShardMaps fed the same stream
// must emit byte-identical sub-batches — local-ID assignment included —
// because a router crash-replay regenerates sub-batches from scratch
// and live replicas already applied the originals.
func TestShardMapApplyDeterministic(t *testing.T) {
	g := partitionTestGraph(t, 150, 7)
	cfg := PartitionConfig{NumShards: 3, HaloDepth: 3}
	stream := randomMutationStream(t, g, rand.New(rand.NewSource(7)), 10, 6, true)

	run := func() [][]ShardDelta {
		sm, err := NewShardMap(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]ShardDelta
		for _, batch := range stream {
			deltas, err := sm.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, deltas)
		}
		return out
	}
	a, b := run(), run()
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("two identical Apply streams produced different sub-batches")
	}
}

// shardMapFingerprint renders every observable piece of ShardMap state
// — global labels/names/adjacency and each shard's (global, local,
// dist) membership — into a canonical string, so rollback tests can
// assert exact restoration.
func shardMapFingerprint(sm *ShardMap) string {
	var b []byte
	b = append(b, fmt.Sprintf("n=%d e=%d\n", len(sm.labels), sm.numEdges)...)
	for v := 0; v < len(sm.labels); v++ {
		b = append(b, fmt.Sprintf("v%d l%d %q adj%v\n", v, sm.labels[v], sm.name(NodeID(v)), sm.sortedNeighbors(NodeID(v)))...)
	}
	for s, sv := range sm.shards {
		b = append(b, fmt.Sprintf("shard %d count %d\n", s, sv.count)...)
		for _, v := range sm.Members(s) {
			b = append(b, fmt.Sprintf("  %d->%d d%d\n", v, sv.g2l[v], sv.dist[v])...)
		}
	}
	return string(b)
}

// TestShardMapApplyStagedRollback drives a random mutation stream
// through the stage/rollback path: every batch is staged, rolled back
// (state must be byte-identical to before), staged again (deltas must
// be byte-identical to the first staging), and kept. The surviving
// state and deltas must match a second ShardMap fed the same stream
// through plain Apply.
func TestShardMapApplyStagedRollback(t *testing.T) {
	g := partitionTestGraph(t, 150, 9)
	cfg := PartitionConfig{NumShards: 3, HaloDepth: 2}
	stream := randomMutationStream(t, g, rand.New(rand.NewSource(9)), 12, 6, true)

	staged, err := NewShardMap(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewShardMap(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range stream {
		before := shardMapFingerprint(staged)
		first, undo, err := staged.ApplyStaged(batch)
		if err != nil {
			t.Fatalf("batch %d stage: %v", i, err)
		}
		undo()
		if after := shardMapFingerprint(staged); after != before {
			t.Fatalf("batch %d: rollback did not restore the pre-batch state\nbefore:\n%s\nafter:\n%s", i, before, after)
		}
		second, _, err := staged.ApplyStaged(batch)
		if err != nil {
			t.Fatalf("batch %d restage: %v", i, err)
		}
		if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
			t.Fatalf("batch %d: deltas differ after rollback\nfirst:  %+v\nsecond: %+v", i, first, second)
		}
		ref, err := plain.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d plain apply: %v", i, err)
		}
		if fmt.Sprintf("%+v", second) != fmt.Sprintf("%+v", ref) {
			t.Fatalf("batch %d: staged deltas differ from plain Apply", i)
		}
	}
	if shardMapFingerprint(staged) != shardMapFingerprint(plain) {
		t.Fatal("staged and plain ShardMaps diverged over the stream")
	}
}

// TestShardMapValidateRejectsAndLeavesStateIntact: invalid batches are
// rejected whole, and the shard map is untouched afterwards.
func TestShardMapValidateRejectsAndLeavesStateIntact(t *testing.T) {
	g := partitionTestGraph(t, 60, 3)
	cfg := PartitionConfig{NumShards: 2, HaloDepth: 2}
	sm, err := NewShardMap(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var existing Mutation
	found := false
	g.Edges(func(u, v NodeID) bool {
		existing = Mutation{Op: OpAddEdge, U: u, V: v}
		found = true
		return false
	})
	if !found {
		t.Fatal("test graph has no edges")
	}
	nodes, edges := sm.NumNodes(), sm.NumEdges()
	bad := [][]Mutation{
		{{Op: OpAddEdge, U: 0, V: 0}},             // self loop
		{{Op: OpAddEdge, U: 0, V: NodeID(nodes)}}, // out of range
		{existing}, // duplicate edge
		{{Op: OpRemoveEdge, U: 0, V: NodeID(nodes) - 1}}, // likely absent; validated below
		{{Op: OpAddNode, Label: "no-such-label"}},        // unknown label
		{{Op: OpRelabel, U: NodeID(nodes), Label: "a"}},  // unknown node
		{{Op: OpAddEdge, U: 1, V: 2}, existing},          // later mutation invalid -> whole batch
		{{Op: Mutation{}.Op, U: 1, V: 2}},                // unknown op
	}
	for i, batch := range bad {
		if i == 3 && g.HasEdge(0, NodeID(nodes)-1) {
			continue // the random graph happens to have this edge; skip
		}
		if _, err := sm.Apply(batch); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if sm.NumNodes() != nodes || sm.NumEdges() != edges {
			t.Fatalf("bad batch %d mutated shard map state", i)
		}
	}
}
