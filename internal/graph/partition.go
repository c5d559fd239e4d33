package graph

import "fmt"

// This file implements the root-based shard partitioner of the serving
// tier: which shard answers for which root. Every shard serves the
// whole graph (see ShardPlan), so a shard answers census requests for
// its roots with exactly the counts a single process would produce, and
// no request ever crosses a shard boundary.

// RootShard assigns a root to one of nShards shards by rendezvous
// (highest-random-weight) hashing: the shard whose keyed hash of the
// root is largest wins. Rendezvous hashing gives the consistency
// property the routing tier needs — when the shard count changes, only
// roots whose winning shard disappeared move — without any ring state
// to persist or synchronise; the partitioner and the router just call
// the same pure function. nShards must be >= 1.
func RootShard(root NodeID, nShards int) int {
	if nShards <= 1 {
		return 0
	}
	best, bestW := 0, rendezvousWeight(uint64(root), 0)
	for s := 1; s < nShards; s++ {
		if w := rendezvousWeight(uint64(root), uint64(s)); w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// rendezvousWeight mixes (root, shard) through a splitmix64-style
// finaliser — cheap, stateless and uniform enough that shard loads stay
// within a few percent of each other on dense ID spaces.
func rendezvousWeight(root, shard uint64) uint64 {
	x := root*0x9E3779B97F4A7C15 ^ shard*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ShardPlan is one shard's serving universe: the roots it owns and the
// graph it serves them from, which is the whole graph. The census of a
// root reads only the root's emax-ball, so a shard could in principle
// hold just its owned roots plus a halo of that depth; but ownership is
// by hash, so owned roots have no locality, and on small-world graphs
// such a halo covers nearly every node (99.8% of the nodes and all the
// edges in each of two shards at 10^5 nodes). So every shard holds the
// whole graph under its global node IDs: there is no halo to place and
// no ID to translate, ownership still splits census work and row caches
// between shards, and all the replicas of all the shards can map one
// store file.
type ShardPlan struct {
	// Shard is this plan's index in [0, NumShards).
	Shard int
	// Graph is the graph the shard serves: the partitioned graph itself,
	// shared by every plan.
	Graph *Graph
	// OwnedRoots lists the IDs of the roots this shard answers for,
	// ascending.
	OwnedRoots []NodeID
}

// PartitionConfig tunes PartitionByRoot.
type PartitionConfig struct {
	// NumShards is the shard count; must be >= 1.
	NumShards int
	// HaloDepth is ignored: every shard serves the whole graph. It was
	// the radius of the neighbourhood a shard kept around its owned
	// roots, and stays so that callers written against that layout
	// still compile.
	HaloDepth int
}

// PartitionByRoot splits the roots of g between NumShards shards: every
// node is owned by exactly one shard (RootShard), and every plan's Graph
// is g itself. Shard stores hold the graph untyped, so typed graphs are
// refused (ErrEdgeTyped).
func PartitionByRoot(g *Graph, cfg PartitionConfig) ([]*ShardPlan, error) {
	if err := g.RequireUntyped("graph: partition"); err != nil {
		return nil, err
	}
	if cfg.NumShards < 1 {
		return nil, fmt.Errorf("graph: NumShards must be >= 1, got %d", cfg.NumShards)
	}
	plans := make([]*ShardPlan, cfg.NumShards)
	for s := range plans {
		plans[s] = &ShardPlan{Shard: s, Graph: g}
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		p := plans[RootShard(v, cfg.NumShards)]
		p.OwnedRoots = append(p.OwnedRoots, v)
	}
	return plans, nil
}

// ValidatePartition cross-checks a set of shard plans against the graph
// they were cut from: every plan serving g itself, and every node owned
// exactly once, by the shard RootShard assigns it to. It is the
// partitioner's self-audit before the shard store is written.
func ValidatePartition(g *Graph, plans []*ShardPlan) error {
	n := g.NumNodes()
	seen := make([]bool, n)
	for _, p := range plans {
		if p.Graph != g {
			return fmt.Errorf("graph: shard %d does not serve the partitioned graph", p.Shard)
		}
		for i, r := range p.OwnedRoots {
			if int(r) < 0 || int(r) >= n {
				return fmt.Errorf("graph: shard %d owns out-of-range root %d", p.Shard, r)
			}
			if i > 0 && r <= p.OwnedRoots[i-1] {
				return fmt.Errorf("graph: shard %d owned roots not ascending", p.Shard)
			}
			if seen[r] {
				return fmt.Errorf("graph: root %d owned by more than one shard", r)
			}
			seen[r] = true
			if want := RootShard(r, len(plans)); want != p.Shard {
				return fmt.Errorf("graph: root %d owned by shard %d, RootShard says %d", r, p.Shard, want)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("graph: node %d owned by no shard", v)
		}
	}
	return nil
}
