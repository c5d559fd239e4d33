package graph

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardMapFixturePath holds the rendering of shardMapFixtureCases as
// produced by the hash-set ShardMap this package shipped before the
// dense-array one (commit af0c633, through renderShardMapFixture
// unchanged). A router replaying a sequencer log written by that build
// must regenerate the same sub-batches and local IDs, so the rendering
// may never change.
const shardMapFixturePath = "testdata/shardmap-fixture.txt"

// shardMapFixtureCases are the seeded streams the fixture records. On
// the random graphs of partitionTestGraph a halo of 2 already covers
// nearly every node, so most cases use chains (each node linked to one
// of the three before it), where halos stay small and the batches' new
// edges force halo repair; half the cases name some of their nodes.
var shardMapFixtureCases = []struct {
	nodes, shards, halo int
	chain, named        bool
	seed                int64
}{
	{nodes: 60, shards: 3, halo: 2, chain: true, seed: 31},
	{nodes: 50, shards: 2, halo: 3, chain: true, named: true, seed: 32},
	{nodes: 70, shards: 4, halo: 1, seed: 33},
	{nodes: 40, shards: 5, halo: 2, named: true, seed: 34},
}

// TestShardMapMatchesParentFixture replays the fixture streams through
// ShardMap and requires the recorded rendering exactly: every
// ShardDelta, every refusal, every shard size and every local-ID table.
func TestShardMapMatchesParentFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(shardMapFixturePath))
	if err != nil {
		t.Fatal(err)
	}
	got := renderShardMapFixture(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("fixture diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("fixture has %d lines, rendering %d", len(wl), len(gl))
}

// fixtureState is the stream generator's view of the global graph: just
// enough to emit valid (and deliberately invalid) mutations.
type fixtureState struct {
	nodes int
	live  [][2]NodeID
	edges map[[2]NodeID]bool
}

func (s *fixtureState) clone() *fixtureState {
	c := &fixtureState{nodes: s.nodes, live: append([][2]NodeID(nil), s.live...), edges: make(map[[2]NodeID]bool, len(s.edges))}
	for k := range s.edges {
		c.edges[k] = true
	}
	return c
}

// batch draws 1-8 valid mutations against s, updating s as it goes.
func (s *fixtureState) batch(rng *rand.Rand, labels []string, named bool) []Mutation {
	var out []Mutation
	for m, n := 0, 1+rng.Intn(8); m < n; m++ {
		switch op := rng.Intn(10); {
		case op == 0:
			name := ""
			if named && rng.Intn(2) == 0 {
				name = fmt.Sprintf("x%d", s.nodes)
			}
			out = append(out, Mutation{Op: OpAddNode, Label: labels[rng.Intn(len(labels))], Name: name})
			s.nodes++
		case op == 1:
			out = append(out, Mutation{Op: OpRelabel, U: NodeID(rng.Intn(s.nodes)), Label: labels[rng.Intn(len(labels))]})
		case op <= 3 && len(s.live) > 0:
			i := rng.Intn(len(s.live))
			k := s.live[i]
			s.live[i] = s.live[len(s.live)-1]
			s.live = s.live[:len(s.live)-1]
			delete(s.edges, k)
			u, v := k[0], k[1]
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			out = append(out, Mutation{Op: OpRemoveEdge, U: u, V: v})
		default:
			for try := 0; try < 32; try++ {
				u, v := NodeID(rng.Intn(s.nodes)), NodeID(rng.Intn(s.nodes))
				k := edgeKey(u, v)
				if u == v || s.edges[k] {
					continue
				}
				s.edges[k] = true
				s.live = append(s.live, k)
				out = append(out, Mutation{Op: OpAddEdge, U: u, V: v})
				break
			}
		}
	}
	return out
}

// invalid returns one mutation Validate must refuse after the batch
// that led to state s.
func (s *fixtureState) invalid(rng *rand.Rand) Mutation {
	switch rng.Intn(5) {
	case 0:
		v := NodeID(rng.Intn(s.nodes))
		return Mutation{Op: OpAddEdge, U: v, V: v}
	case 1:
		return Mutation{Op: OpAddEdge, U: 0, V: NodeID(s.nodes + rng.Intn(3))}
	case 2:
		if len(s.live) > 0 {
			k := s.live[rng.Intn(len(s.live))]
			return Mutation{Op: OpAddEdge, U: k[1], V: k[0]}
		}
		return Mutation{Op: OpAddNode, Label: "no-such-label"}
	case 3:
		return Mutation{Op: OpRelabel, U: NodeID(s.nodes), Label: "a"}
	default:
		for {
			u, v := NodeID(rng.Intn(s.nodes)), NodeID(rng.Intn(s.nodes))
			if u != v && !s.edges[edgeKey(u, v)] {
				return Mutation{Op: OpRemoveEdge, U: u, V: v}
			}
		}
	}
}

// renderShardMapFixture runs every fixture case through ShardMap's
// exported API and renders what it observed. Each batch is applied
// plainly, staged and rolled back (then dropped, or restaged and kept),
// or made invalid by appending a mutation Validate must refuse.
func renderShardMapFixture(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for ci, tc := range shardMapFixtureCases {
		rng := rand.New(rand.NewSource(tc.seed))
		g := shardMapFixtureGraph(t, tc.nodes, tc.chain, tc.named, rng)
		sm, err := NewShardMap(g, PartitionConfig{NumShards: tc.shards, HaloDepth: tc.halo})
		if err != nil {
			t.Fatal(err)
		}
		state := &fixtureState{nodes: g.NumNodes(), edges: make(map[[2]NodeID]bool)}
		g.Edges(func(u, v NodeID) bool {
			k := edgeKey(u, v)
			state.edges[k] = true
			state.live = append(state.live, k)
			return true
		})
		fmt.Fprintf(&b, "case %d: %d nodes %d edges, %d shards, halo %d, named %v\n", ci, g.NumNodes(), g.NumEdges(), tc.shards, tc.halo, tc.named)
		renderShardMapTables(&b, sm)
		labels := g.Alphabet().Names()
		for bi := 0; bi < 20; bi++ {
			next := state.clone()
			batch := next.batch(rng, labels, tc.named)
			mode := rng.Intn(6)
			fmt.Fprintf(&b, "batch %d:", bi)
			for _, m := range batch {
				fmt.Fprintf(&b, " %s(%d,%d,%q,%q)", m.Op, m.U, m.V, m.Label, m.Name)
			}
			b.WriteString("\n")
			switch mode {
			case 0: // refused whole: Validate sees the bad tail
				tail := next.invalid(rng)
				if _, err := sm.Apply(append(batch, tail)); err == nil {
					t.Fatalf("case %d batch %d: invalid tail %+v accepted", ci, bi, tail)
				}
				fmt.Fprintf(&b, "  refused with tail %s(%d,%d,%q)\n", tail.Op, tail.U, tail.V, tail.Label)
			case 1, 2: // staged, rolled back; dropped on 1, restaged and kept on 2
				deltas, undo, err := sm.ApplyStaged(batch)
				if err != nil {
					t.Fatalf("case %d batch %d: %v", ci, bi, err)
				}
				renderShardDeltas(&b, "staged", deltas)
				undo()
				fmt.Fprintf(&b, "  rolled back: %d nodes %d edges\n", sm.NumNodes(), sm.NumEdges())
				if mode == 1 {
					break
				}
				if deltas, _, err = sm.ApplyStaged(batch); err != nil {
					t.Fatalf("case %d batch %d restage: %v", ci, bi, err)
				}
				renderShardDeltas(&b, "kept", deltas)
				state = next
			default:
				deltas, err := sm.Apply(batch)
				if err != nil {
					t.Fatalf("case %d batch %d: %v", ci, bi, err)
				}
				renderShardDeltas(&b, "applied", deltas)
				state = next
			}
			renderShardMapTables(&b, sm)
		}
		for s := 0; s < tc.shards; s++ {
			fmt.Fprintf(&b, "members %d: %v\n", s, sm.Members(s))
		}
	}
	return b.String()
}

// shardMapFixtureGraph builds one fixture case's seed graph: a chain or
// partitionTestGraph's random graph, with every node but each third
// one named when named is set.
func shardMapFixtureGraph(t *testing.T, n int, chain, named bool, rng *rand.Rand) *Graph {
	t.Helper()
	base := partitionTestGraph(t, n, rng.Int63())
	b := NewBuilderWithAlphabet(base.Alphabet())
	for v := 0; v < n; v++ {
		name := ""
		if named && v%3 != 0 {
			name = fmt.Sprintf("n%d", v)
		}
		if _, err := b.AddNamedNode(base.Alphabet().Name(base.Label(NodeID(v))), name); err != nil {
			t.Fatal(err)
		}
	}
	if chain {
		for v := 1; v < n; v++ {
			if err := b.AddEdge(NodeID(v), NodeID(max(0, v-1-rng.Intn(3)))); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		base.Edges(func(u, v NodeID) bool {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
	return b.MustBuild()
}

func renderShardDeltas(b *strings.Builder, how string, deltas []ShardDelta) {
	for _, d := range deltas {
		fmt.Fprintf(b, "  %s shard %d new %v:", how, d.Shard, d.NewNodes)
		for _, m := range d.Muts {
			fmt.Fprintf(b, " %s(%d,%d,%q,%q)", m.Op, m.U, m.V, m.Label, m.Name)
		}
		b.WriteString("\n")
	}
}

// renderShardMapTables writes the global counts and, per shard, its
// size and local-ID table (local ID of every global node, - when
// absent).
func renderShardMapTables(b *strings.Builder, sm *ShardMap) {
	fmt.Fprintf(b, "  nodes %d edges %d\n", sm.NumNodes(), sm.NumEdges())
	for s := 0; s < sm.NumShards(); s++ {
		fmt.Fprintf(b, "  shard %d size %d:", s, sm.ShardSize(s))
		for v := 0; v < sm.NumNodes(); v++ {
			if l, ok := sm.LocalID(s, NodeID(v)); ok {
				fmt.Fprintf(b, " %d", l)
			} else {
				b.WriteString(" -")
			}
		}
		b.WriteString("\n")
	}
}
