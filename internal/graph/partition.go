package graph

import (
	"fmt"
	"sort"
)

// This file implements the root-based shard partitioner of the serving
// tier. The census of a root only ever touches the root's
// distance-<=emax neighbourhood — an enumerated subgraph has at most
// emax edges, so every node it contains lies within emax hops of the
// root — which means the graph partitions cleanly by root: a shard that
// owns a set of roots plus the halo of their distance-<=HaloDepth
// neighbourhoods answers census requests for those roots with exactly
// the counts the full graph would produce, and no request ever crosses
// a shard boundary.

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

// ShardPlan is one shard's self-contained serving universe: the induced
// subgraph over the shard's owned roots plus their halo, and the ID
// mappings the router needs to translate between global and shard-local
// node IDs.
type ShardPlan struct {
	// Shard is this plan's index in [0, NumShards).
	Shard int
	// Graph is the induced subgraph over owned roots + halo. Local node
	// IDs are dense; LocalToGlobal maps them back.
	Graph *Graph
	// OwnedRoots lists the global IDs of the roots this shard answers
	// for, ascending. Halo nodes are present in Graph but never owned.
	OwnedRoots []NodeID
	// LocalToGlobal maps shard-local node IDs to global IDs (ascending,
	// because Induced sorts its node set).
	LocalToGlobal []NodeID
}

// PartitionConfig tunes PartitionByRoot.
type PartitionConfig struct {
	// NumShards is the shard count; must be >= 1.
	NumShards int
	// HaloDepth is the neighbourhood radius materialised around every
	// owned root. For exact census equivalence it must be >= the serving
	// emax (Options.MaxEdges); when dmax pruning (Options.MaxDegree) is
	// in use it must be >= emax+1, so that every node that can enter a
	// subgraph keeps its full-graph degree inside the shard. Must be
	// >= 1.
	HaloDepth int
}

// PartitionByRoot splits g into NumShards self-contained shard
// universes: every node is owned by exactly one shard (RootShard), and
// each shard's graph is the subgraph induced by its owned roots plus
// all nodes within HaloDepth hops of any of them. The union of
// OwnedRoots across shards is exactly the node set of g; halo nodes are
// duplicated across shards by design — that duplication is what keeps
// census extraction local. Shard graphs are untyped, so typed graphs are
// refused (ErrEdgeTyped).
func PartitionByRoot(g *Graph, cfg PartitionConfig) ([]*ShardPlan, error) {
	if err := g.RequireUntyped("graph: partition"); err != nil {
		return nil, err
	}
	if cfg.NumShards < 1 {
		return nil, fmt.Errorf("graph: NumShards must be >= 1, got %d", cfg.NumShards)
	}
	if cfg.HaloDepth < 1 {
		return nil, fmt.Errorf("graph: HaloDepth must be >= 1, got %d", cfg.HaloDepth)
	}
	n := g.NumNodes()
	owned := make([][]NodeID, cfg.NumShards)
	for v := NodeID(0); int(v) < n; v++ {
		s := RootShard(v, cfg.NumShards)
		owned[s] = append(owned[s], v)
	}

	plans := make([]*ShardPlan, cfg.NumShards)
	// visited is reused across shards as an epoch array: visited[v] == epoch
	// marks v as collected for the current shard without a per-shard
	// clear of the whole array.
	visited := make([]int, n)
	for i := range visited {
		visited[i] = -1
	}
	frontier := make([]NodeID, 0, 1024)
	next := make([]NodeID, 0, 1024)
	for s := 0; s < cfg.NumShards; s++ {
		members := make([]NodeID, 0, len(owned[s])*2)
		frontier = frontier[:0]
		for _, r := range owned[s] {
			visited[r] = s
			members = append(members, r)
			frontier = append(frontier, r)
		}
		// Multi-source BFS from all owned roots at once: a node at
		// distance d from its nearest owned root is collected in round d.
		for depth := 0; depth < cfg.HaloDepth && len(frontier) > 0; depth++ {
			next = next[:0]
			for _, u := range frontier {
				for _, w := range g.Neighbors(u) {
					if visited[w] != s {
						visited[w] = s
						members = append(members, w)
						next = append(next, w)
					}
				}
			}
			frontier, next = next, frontier
		}
		sub, localToGlobal := Induced(g, members)
		plans[s] = &ShardPlan{
			Shard:         s,
			Graph:         sub,
			OwnedRoots:    owned[s],
			LocalToGlobal: localToGlobal,
		}
	}
	return plans, nil
}

// ValidatePartition cross-checks a set of shard plans against the graph
// they were cut from: every node owned exactly once, ownership matching
// RootShard, and every owned root present in its shard's graph. It is
// the partitioner's self-audit before shard snapshots are written.
func ValidatePartition(g *Graph, plans []*ShardPlan) error {
	n := g.NumNodes()
	seen := make([]bool, n)
	for _, p := range plans {
		g2l, err := denseGlobalToLocal(p, n)
		if err != nil {
			return err
		}
		if !sort.SliceIsSorted(p.OwnedRoots, func(i, j int) bool { return p.OwnedRoots[i] < p.OwnedRoots[j] }) {
			return fmt.Errorf("graph: shard %d owned roots not ascending", p.Shard)
		}
		for _, r := range p.OwnedRoots {
			if int(r) < 0 || int(r) >= n {
				return fmt.Errorf("graph: shard %d owns out-of-range root %d", p.Shard, r)
			}
			if seen[r] {
				return fmt.Errorf("graph: root %d owned by more than one shard", r)
			}
			seen[r] = true
			if want := RootShard(r, len(plans)); want != p.Shard {
				return fmt.Errorf("graph: root %d owned by shard %d, RootShard says %d", r, p.Shard, want)
			}
			local := g2l[r]
			if local < 0 {
				return fmt.Errorf("graph: shard %d owns root %d but its graph does not contain it", p.Shard, r)
			}
			if p.Graph.Label(local) != g.Label(r) {
				return fmt.Errorf("graph: root %d label mismatch in shard %d", r, p.Shard)
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

// denseGlobalToLocal inverts p.LocalToGlobal over a graph of n nodes:
// entry g is g's local ID in the shard, or -1 where g is not a member.
func denseGlobalToLocal(p *ShardPlan, n int) ([]NodeID, error) {
	g2l := make([]NodeID, n)
	for i := range g2l {
		g2l[i] = -1
	}
	for local, global := range p.LocalToGlobal {
		if global < 0 || int(global) >= n {
			return nil, fmt.Errorf("graph: shard %d maps local %d to out-of-range global %d", p.Shard, local, global)
		}
		g2l[global] = NodeID(local)
	}
	return g2l, nil
}
