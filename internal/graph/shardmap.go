package graph

import (
	"fmt"
	"slices"
)

// This file is the fleet-ingest side of the root-based partitioner: a
// ShardMap tracks, for a mutating global graph, exactly the state
// PartitionByRoot derived once at partition time — which nodes belong
// to each shard's universe (owned roots plus their distance-<=HaloDepth
// halo) and the global<->local ID translation per shard — and keeps it
// current as mutations stream in. Apply resolves one validated batch
// into per-shard sub-batches with shard-local IDs, including the halo
// repair a new edge forces: when an edge addition pulls a node into a
// shard's fringe, the node (and its full adjacency among the shard's
// members) is shipped in that shard's sub-batch, so the shard graph
// stays the exact induced subgraph over its members.
//
// Distances never grow here. The mutation vocabulary has no
// remove_node, so shard membership is maintained as a monotone
// superset: an edge removal may lengthen a node's true distance to its
// nearest owned root, but the node stays a member at its recorded
// (now possibly optimistic) distance. That direction is the safe one —
// recorded distance <= true distance means membership is always a
// superset of the from-scratch partition, and a superset preserves
// census exactness: every node within HaloDepth (>= emax) hops of an
// owned root is present with its full induced adjacency, and extra
// fringe nodes beyond the census radius can never enter an owned
// root's counts. For add-only mutation streams the recorded distances
// are exact and membership equals the from-scratch partition
// node-for-node (shardmap_test.go pins both properties).
type ShardMap struct {
	numShards int
	haloDepth int

	// base is the graph the map was built from (the router's own boot
	// graph), shared and read-only. A node reads its adjacency from
	// base until a batch adds or removes one of its edges; from then on
	// it reads its copy-on-write list adj[cow[v]-1], ascending by ID.
	// cow[v] == 0 means "still base"; nodes a batch added read an empty
	// list until they gain an edge.
	base     *Graph
	cow      []int32
	adj      [][]NodeID
	alphabet *Alphabet
	labels   []Label
	// names is nil while no node has a name (the graph has none and no
	// batch added a named node).
	names    []string
	numEdges int

	shards []*shardMembers
	// sorted is sortedNeighbors' buffer for base adjacency.
	sorted []NodeID
}

// shardMembers is one shard's membership state, dense over global IDs:
// dist[v] is v's recorded distance to the nearest owned root (0 for
// owned nodes) and g2l[v] its local ID, both -1 when v is not a member.
// Local IDs are assigned in engine application order, so count is the
// shard's node count.
type shardMembers struct {
	dist  []int32
	g2l   []NodeID
	count NodeID
}

// ShardDelta is one shard's slice of an applied batch: the sub-batch in
// shard-local IDs (halo-repair add_node/add_edge mutations included)
// plus the global IDs of nodes the batch added to this shard, in
// local-ID assignment order — local IDs count up from the shard's
// pre-batch node count exactly as the shard engine's overlay assigns
// them, so NewNodes[i] receives local ID priorCount+i.
type ShardDelta struct {
	Shard    int
	Muts     []Mutation
	NewNodes []NodeID
}

// NewShardMap builds the mutable partition state for g under cfg. The
// initial per-shard membership and local-ID assignment are identical to
// PartitionByRoot + Induced over the same inputs (members ascending by
// global ID), so a ShardMap constructed from the partition-time graph
// speaks the same local IDs as the manifest written next to the shard
// snapshots. Like PartitionByRoot it refuses typed graphs. The map keeps
// g as its base adjacency and copies none of it; each shard's halo BFS
// runs over g's CSR with two O(V) arrays of its own.
func NewShardMap(g *Graph, cfg PartitionConfig) (*ShardMap, error) {
	if err := g.RequireUntyped("graph: shard map"); err != nil {
		return nil, err
	}
	if cfg.NumShards < 1 {
		return nil, fmt.Errorf("graph: NumShards must be >= 1, got %d", cfg.NumShards)
	}
	if cfg.HaloDepth < 1 {
		return nil, fmt.Errorf("graph: HaloDepth must be >= 1, got %d", cfg.HaloDepth)
	}
	n := g.NumNodes()
	sm := &ShardMap{
		numShards: cfg.NumShards,
		haloDepth: cfg.HaloDepth,
		base:      g,
		cow:       make([]int32, n),
		alphabet:  g.Alphabet(),
		labels:    append([]Label(nil), g.labels...),
		numEdges:  g.NumEdges(),
		shards:    make([]*shardMembers, cfg.NumShards),
	}
	if g.names != nil {
		sm.names = append([]string(nil), g.names...)
	}

	owned := make([][]NodeID, cfg.NumShards)
	for v := NodeID(0); int(v) < n; v++ {
		s := RootShard(v, cfg.NumShards)
		owned[s] = append(owned[s], v)
	}
	for s := range sm.shards {
		sm.shards[s] = haloMembers(g, owned[s], cfg.HaloDepth)
	}
	return sm, nil
}

// haloMembers is one shard's boot membership: a multi-source BFS from
// the owned roots to depth halo over g's CSR, then local IDs by
// ascending global ID.
func haloMembers(g *Graph, roots []NodeID, halo int) *shardMembers {
	n := g.NumNodes()
	sv := &shardMembers{dist: make([]int32, n), g2l: make([]NodeID, n)}
	for v := range sv.dist {
		sv.dist[v] = -1
	}
	frontier := make([]NodeID, 0, len(roots))
	for _, r := range roots {
		sv.dist[r] = 0
		frontier = append(frontier, r)
	}
	var next []NodeID
	for depth := int32(1); int(depth) <= halo && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if sv.dist[w] < 0 {
					sv.dist[w] = depth
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	for v, d := range sv.dist {
		if d < 0 {
			sv.g2l[v] = -1
			continue
		}
		sv.g2l[v] = sv.count
		sv.count++
	}
	return sv
}

// NumShards returns the shard count.
func (sm *ShardMap) NumShards() int { return sm.numShards }

// HaloDepth returns the maintained halo radius.
func (sm *ShardMap) HaloDepth() int { return sm.haloDepth }

// NumNodes returns the current global node count.
func (sm *ShardMap) NumNodes() int { return len(sm.labels) }

// NumEdges returns the current global edge count.
func (sm *ShardMap) NumEdges() int { return sm.numEdges }

// LocalID translates a global node ID into shard's local ID space,
// reporting whether the node is a member of that shard.
func (sm *ShardMap) LocalID(shard int, global NodeID) (NodeID, bool) {
	g2l := sm.shards[shard].g2l
	if global < 0 || int(global) >= len(g2l) || g2l[global] < 0 {
		return 0, false
	}
	return g2l[global], true
}

// ShardSize returns shard's current member count (== its local node
// count).
func (sm *ShardMap) ShardSize(shard int) int { return int(sm.shards[shard].count) }

// Members returns shard's member set as ascending global IDs.
func (sm *ShardMap) Members(shard int) []NodeID {
	sv := sm.shards[shard]
	out := make([]NodeID, 0, sv.count)
	for v, l := range sv.g2l {
		if l >= 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// name returns node v's name, "" when it has none.
func (sm *ShardMap) name(v NodeID) string {
	if sm.names == nil {
		return ""
	}
	return sm.names[v]
}

// hasEdge reports adjacency in the current global state. Base adjacency
// is searched by base's labels, which batches never change: a relabel
// moves the node's label in sm.labels only.
func (sm *ShardMap) hasEdge(u, v NodeID) bool {
	if c := sm.cow[u]; c > 0 {
		_, found := slices.BinarySearch(sm.adj[c-1], v)
		return found
	}
	n := NodeID(sm.base.NumNodes())
	return u < n && v < n && sm.base.HasEdge(u, v)
}

// sortedNeighbors returns v's neighbours ascending. Halo repair MUST
// traverse adjacency in a deterministic order: the local IDs a pull
// assigns depend on traversal order, and a router that crash-replays
// its sequencer log regenerates every sub-batch from scratch — if the
// regenerated pull order differed from the original, the replayed
// local IDs would disagree with what live replicas already applied.
// The result aliases map state (a copy-on-write list, or a buffer the
// next call reuses), so callers finish with it before the next call or
// any edge change.
func (sm *ShardMap) sortedNeighbors(v NodeID) []NodeID {
	if c := sm.cow[v]; c > 0 {
		return sm.adj[c-1]
	}
	if int(v) >= sm.base.NumNodes() {
		return nil
	}
	sm.sorted = append(sm.sorted[:0], sm.base.Neighbors(v)...)
	slices.Sort(sm.sorted)
	return sm.sorted
}

// setEdge adds (present) or removes u's adjacency entry for v, giving u
// its copy-on-write list first if it still reads base. It reports
// whether u's list was created by this call.
func (sm *ShardMap) setEdge(u, v NodeID, present bool) bool {
	created := false
	if sm.cow[u] == 0 {
		var list []NodeID
		if int(u) < sm.base.NumNodes() {
			list = append(make([]NodeID, 0, sm.base.Degree(u)+1), sm.base.Neighbors(u)...)
			slices.Sort(list)
		}
		sm.adj = append(sm.adj, list)
		sm.cow[u] = int32(len(sm.adj))
		created = true
	}
	list := sm.adj[sm.cow[u]-1]
	i, found := slices.BinarySearch(list, v)
	switch {
	case present && !found:
		list = slices.Insert(list, i, v)
	case !present && found:
		list = slices.Delete(list, i, i+1)
	}
	sm.adj[sm.cow[u]-1] = list
	return created
}

// Validate checks one batch against the current global state without
// mutating anything — the same invariants Overlay enforces (in-range
// endpoints, no self loops, no duplicate edges, no absent-edge
// removals, labels from the fixed alphabet), including references to
// nodes the batch itself adds. The router runs this before assigning a
// fleet sequence: once sequenced, a batch must apply cleanly on every
// shard, so nothing invalid may reach the sequencer log.
func (sm *ShardMap) Validate(muts []Mutation) error {
	next := NodeID(len(sm.labels))
	added := make(map[[2]NodeID]struct{})
	removed := make(map[[2]NodeID]struct{})
	has := func(u, v NodeID) bool {
		k := edgeKey(u, v)
		if _, ok := added[k]; ok {
			return true
		}
		if _, ok := removed[k]; ok {
			return false
		}
		if int(u) >= len(sm.labels) || int(v) >= len(sm.labels) {
			return false
		}
		return sm.hasEdge(u, v)
	}
	for i, m := range muts {
		switch m.Op {
		case OpAddNode:
			if _, ok := sm.alphabet.Lookup(m.Label); !ok {
				return fmt.Errorf("mutation %d: unknown label %q", i, m.Label)
			}
			next++
		case OpAddEdge, OpRemoveEdge:
			if m.U == m.V {
				return fmt.Errorf("mutation %d: self loop at node %d", i, m.U)
			}
			if m.U < 0 || m.V < 0 || m.U >= next || m.V >= next {
				return fmt.Errorf("mutation %d: edge %d-%d references unknown node (have %d nodes)", i, m.U, m.V, next)
			}
			if m.Op == OpAddEdge && has(m.U, m.V) {
				return fmt.Errorf("mutation %d: duplicate edge %d-%d", i, m.U, m.V)
			}
			if m.Op == OpRemoveEdge && !has(m.U, m.V) {
				return fmt.Errorf("mutation %d: edge %d-%d does not exist", i, m.U, m.V)
			}
			k := edgeKey(m.U, m.V)
			if m.Op == OpAddEdge {
				if _, ok := removed[k]; ok {
					delete(removed, k)
				} else {
					added[k] = struct{}{}
				}
			} else {
				if _, ok := added[k]; ok {
					delete(added, k)
				} else {
					removed[k] = struct{}{}
				}
			}
		case OpRelabel:
			if m.U < 0 || m.U >= next {
				return fmt.Errorf("mutation %d: relabel of unknown node %d (have %d nodes)", i, m.U, next)
			}
			if _, ok := sm.alphabet.Lookup(m.Label); !ok {
				return fmt.Errorf("mutation %d: unknown label %q", i, m.Label)
			}
		default:
			return fmt.Errorf("mutation %d: unknown op %d", i, uint8(m.Op))
		}
	}
	return nil
}

// smUndo journals the inverse of every state change one Apply makes,
// first-touch only: the first time the batch touches an edge, a label,
// or a (shard, node) distance, the pre-batch value is recorded, so
// rollback restores exactly the pre-batch state no matter how many
// times the batch revisits the same key (add-then-remove of one edge,
// repeated relaxation of one node). Node additions are journaled by
// the pre-batch node count alone: new nodes occupy the tail of every
// per-node array, so truncation removes them wholesale. Copy-on-write
// lists created by the batch sit past the pre-batch adj length, so
// their owners go back to reading base.
type smUndo struct {
	numNodes int
	numEdges int
	numAdj   int
	noNames  bool
	cowed    []NodeID           // pre-batch nodes whose list the batch created
	edges    map[[2]NodeID]bool // original presence
	labels   map[NodeID]Label   // original label
	shards   []*shardUndo       // nil for untouched shards
}

type shardUndo struct {
	count  NodeID           // pre-batch local-ID count
	pulled []NodeID         // nodes admitted this batch (g2l entries to drop)
	dist   map[NodeID]int32 // original distance, -1 for non-members
}

func newSMUndo(sm *ShardMap) *smUndo {
	return &smUndo{
		numNodes: len(sm.labels),
		numEdges: sm.numEdges,
		numAdj:   len(sm.adj),
		noNames:  sm.names == nil,
		edges:    make(map[[2]NodeID]bool),
		labels:   make(map[NodeID]Label),
		shards:   make([]*shardUndo, sm.numShards),
	}
}

func (u *smUndo) shardState(sm *ShardMap, s int) *shardUndo {
	if u.shards[s] == nil {
		u.shards[s] = &shardUndo{count: sm.shards[s].count, dist: make(map[NodeID]int32)}
	}
	return u.shards[s]
}

func (u *smUndo) touchEdge(sm *ShardMap, a, b NodeID) {
	k := edgeKey(a, b)
	if _, ok := u.edges[k]; !ok {
		u.edges[k] = sm.hasEdge(a, b)
	}
}

func (u *smUndo) touchLabel(sm *ShardMap, v NodeID) {
	if _, ok := u.labels[v]; !ok {
		u.labels[v] = sm.labels[v]
	}
}

func (su *shardUndo) touchDist(sv *shardMembers, v NodeID) {
	if _, ok := su.dist[v]; !ok {
		su.dist[v] = sv.dist[v]
	}
}

// setEdge records a first-created copy-on-write list of a pre-batch
// node so rollback can drop it.
func (u *smUndo) setEdge(sm *ShardMap, a, b NodeID, present bool) {
	if sm.setEdge(a, b, present) && int(a) < u.numNodes {
		u.cowed = append(u.cowed, a)
	}
}

// rollback restores the pre-batch state recorded in u. Lists the batch
// created are dropped wholesale; edge presence is restored only in
// lists that predate the batch, and only for pre-batch nodes.
func (sm *ShardMap) rollback(u *smUndo) {
	for _, v := range u.cowed {
		sm.cow[v] = 0
	}
	for k, present := range u.edges {
		for _, e := range [2][2]NodeID{{k[0], k[1]}, {k[1], k[0]}} {
			if int(e[0]) < u.numNodes && sm.cow[e[0]] > 0 && int(sm.cow[e[0]]) <= u.numAdj {
				sm.setEdge(e[0], e[1], present)
			}
		}
	}
	clear(sm.adj[u.numAdj:])
	sm.adj = sm.adj[:u.numAdj]
	sm.cow = sm.cow[:u.numNodes]
	sm.labels = sm.labels[:u.numNodes]
	if u.noNames {
		sm.names = nil
	} else {
		sm.names = sm.names[:u.numNodes]
	}
	sm.numEdges = u.numEdges
	for v, l := range u.labels {
		if int(v) < u.numNodes {
			sm.labels[v] = l
		}
	}
	for s, sv := range sm.shards {
		sv.dist = sv.dist[:u.numNodes]
		sv.g2l = sv.g2l[:u.numNodes]
		su := u.shards[s]
		if su == nil {
			continue
		}
		for v, d := range su.dist {
			if int(v) < u.numNodes {
				sv.dist[v] = d
			}
		}
		for _, v := range su.pulled {
			if int(v) < u.numNodes {
				sv.g2l[v] = -1
			}
		}
		sv.count = su.count
	}
}

// deltaAcc accumulates one shard's sub-batch during Apply. emitted
// tracks edges already shipped this batch (by global key), so the halo
// repair of a pulled node and the triggering mutation never double-ship
// the same edge; a remove_edge clears the key so a later re-add in the
// same batch ships again.
type deltaAcc struct {
	muts     []Mutation
	newNodes []NodeID
	emitted  map[[2]NodeID]struct{}
}

// Apply resolves one batch: validates it whole (an invalid batch
// changes nothing), applies it to the global state, maintains every
// shard's membership/distances, and returns the per-shard sub-batches
// in shard-local IDs. Only shards the batch touches appear in the
// result. Mutation order within each sub-batch preserves the input
// order, with halo-repair mutations (pulled nodes + their adjacency)
// spliced in where the pulling edge occurs — so a shard engine applying
// the sub-batch through its overlay sees every referenced node before
// the edge that references it.
func (sm *ShardMap) Apply(muts []Mutation) ([]ShardDelta, error) {
	deltas, _, err := sm.ApplyStaged(muts)
	return deltas, err
}

// ApplyStaged is Apply plus an escape hatch: the returned rollback
// restores the ShardMap (membership, distances, local-ID assignment,
// global adjacency) to its exact pre-batch state. The router uses it to
// size-check the emitted sub-batches against follower limits before the
// batch takes a durable fleet sequence — an oversized batch must be
// refused as if it never happened, or the sequencer log would carry a
// batch no follower can accept. rollback is single-shot and only valid
// until the next mutation of the ShardMap; after calling it, re-staging
// the same batch regenerates byte-identical deltas (the emission is
// deterministic in the restored state).
func (sm *ShardMap) ApplyStaged(muts []Mutation) ([]ShardDelta, func(), error) {
	if err := sm.Validate(muts); err != nil {
		return nil, nil, err
	}
	undo := newSMUndo(sm)
	accs := make([]*deltaAcc, sm.numShards)
	acc := func(s int) *deltaAcc {
		if accs[s] == nil {
			accs[s] = &deltaAcc{emitted: make(map[[2]NodeID]struct{})}
		}
		return accs[s]
	}

	for _, m := range muts {
		switch m.Op {
		case OpAddNode:
			l, _ := sm.alphabet.Lookup(m.Label)
			gid := NodeID(len(sm.labels))
			sm.labels = append(sm.labels, l)
			if m.Name != "" && sm.names == nil {
				sm.names = make([]string, gid, gid+1)
			}
			if sm.names != nil {
				sm.names = append(sm.names, m.Name)
			}
			sm.cow = append(sm.cow, 0)
			for _, sv := range sm.shards {
				sv.dist = append(sv.dist, -1)
				sv.g2l = append(sv.g2l, -1)
			}
			// A fresh node has no edges, so it enters exactly one
			// universe: its owner's, as an owned root at distance 0.
			owner := RootShard(gid, sm.numShards)
			a := acc(owner)
			sv := sm.shards[owner]
			su := undo.shardState(sm, owner)
			su.touchDist(sv, gid)
			su.pulled = append(su.pulled, gid)
			sv.dist[gid] = 0
			sv.g2l[gid] = sv.count
			sv.count++
			a.newNodes = append(a.newNodes, gid)
			a.muts = append(a.muts, Mutation{Op: OpAddNode, Label: m.Label, Name: m.Name})

		case OpAddEdge:
			undo.touchEdge(sm, m.U, m.V)
			undo.setEdge(sm, m.U, m.V, true)
			undo.setEdge(sm, m.V, m.U, true)
			sm.numEdges++
			for s := 0; s < sm.numShards; s++ {
				sv := sm.shards[s]
				du, dv := sv.dist[m.U], sv.dist[m.V]
				if du < 0 && dv < 0 {
					continue
				}
				a := acc(s)
				// The new edge may shorten distances through either
				// endpoint; relax both directions to the halo bound,
				// pulling (and shipping) any node that newly qualifies.
				if du >= 0 {
					sm.relax(s, a, undo, m.V, du+1)
				}
				if dv >= 0 {
					sm.relax(s, a, undo, m.U, dv+1)
				}
				lu, lv := sv.g2l[m.U], sv.g2l[m.V]
				if lu >= 0 && lv >= 0 {
					k := edgeKey(m.U, m.V)
					if _, done := a.emitted[k]; !done {
						a.emitted[k] = struct{}{}
						a.muts = append(a.muts, Mutation{Op: OpAddEdge, U: lu, V: lv})
					}
				}
			}

		case OpRemoveEdge:
			undo.touchEdge(sm, m.U, m.V)
			undo.setEdge(sm, m.U, m.V, false)
			undo.setEdge(sm, m.V, m.U, false)
			sm.numEdges--
			// Membership never shrinks (see the type comment); the removal
			// ships to every shard holding both endpoints — which, by the
			// induced-subgraph invariant, is every shard holding the edge.
			for s := 0; s < sm.numShards; s++ {
				sv := sm.shards[s]
				lu, lv := sv.g2l[m.U], sv.g2l[m.V]
				if lu >= 0 && lv >= 0 {
					a := acc(s)
					delete(a.emitted, edgeKey(m.U, m.V))
					a.muts = append(a.muts, Mutation{Op: OpRemoveEdge, U: lu, V: lv})
				}
			}

		case OpRelabel:
			l, _ := sm.alphabet.Lookup(m.Label)
			undo.touchLabel(sm, m.U)
			sm.labels[m.U] = l
			for s := 0; s < sm.numShards; s++ {
				if lu := sm.shards[s].g2l[m.U]; lu >= 0 {
					a := acc(s)
					a.muts = append(a.muts, Mutation{Op: OpRelabel, U: lu, Label: m.Label})
				}
			}
		}
	}

	var out []ShardDelta
	for s, a := range accs {
		if a != nil && len(a.muts) > 0 {
			out = append(out, ShardDelta{Shard: s, Muts: a.muts, NewNodes: a.newNodes})
		}
	}
	return out, func() { sm.rollback(undo) }, nil
}

// relax installs distance d for seed in shard s if it improves on the
// recorded value, then BFS-propagates the improvement outward up to the
// halo bound. A node entering the membership for the first time is
// pulled: its local ID is assigned, and an add_node plus its full
// adjacency among current members is appended to the sub-batch — the
// halo repair that keeps the shard graph an exact induced subgraph.
func (sm *ShardMap) relax(s int, a *deltaAcc, undo *smUndo, seed NodeID, d int32) {
	if int(d) > sm.haloDepth {
		return
	}
	sv := sm.shards[s]
	su := undo.shardState(sm, s)
	type cand struct {
		node NodeID
		d    int32
	}
	queue := []cand{{seed, d}}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		cur := sv.dist[c.node]
		if cur >= 0 && cur <= c.d {
			continue
		}
		if cur < 0 {
			sm.pull(s, sv, a, su, c.node)
		}
		su.touchDist(sv, c.node)
		sv.dist[c.node] = c.d
		if nd := c.d + 1; int(nd) <= sm.haloDepth {
			for _, x := range sm.sortedNeighbors(c.node) {
				if xd := sv.dist[x]; xd < 0 || xd > nd {
					queue = append(queue, cand{x, nd})
				}
			}
		}
	}
}

// pull admits global node v into shard s: assigns the next local ID and
// appends add_node plus every edge between v and an existing member to
// the sub-batch (deduplicated against edges the batch already shipped).
func (sm *ShardMap) pull(s int, sv *shardMembers, a *deltaAcc, su *shardUndo, v NodeID) {
	lv := sv.count
	sv.g2l[v] = lv
	sv.count++
	su.pulled = append(su.pulled, v)
	a.newNodes = append(a.newNodes, v)
	a.muts = append(a.muts, Mutation{
		Op:    OpAddNode,
		Label: sm.alphabet.Name(sm.labels[v]),
		Name:  sm.name(v),
	})
	for _, x := range sm.sortedNeighbors(v) {
		lx := sv.g2l[x]
		if lx < 0 {
			continue
		}
		k := edgeKey(v, x)
		if _, done := a.emitted[k]; done {
			continue
		}
		a.emitted[k] = struct{}{}
		a.muts = append(a.muts, Mutation{Op: OpAddEdge, U: lv, V: lx})
	}
}
