package graph

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// overlayState copies everything an Overlay holds beside its base, so a
// test can tell whether a call changed it.
func overlayState(o *Overlay) any {
	return []any{
		slices.Clone(o.labels), slices.Clone(o.names),
		maps.Clone(o.added), maps.Clone(o.removed), maps.Clone(o.touched),
	}
}

// TestOverlayCheckRejectsAndLeavesStateIntact: invalid batches are
// refused whole, by the index of their first bad mutation, and Check
// changes nothing, accepted or refused.
func TestOverlayCheckRejectsAndLeavesStateIntact(t *testing.T) {
	o := NewOverlay(testBase(t))
	if err := o.Apply(Mutation{Op: OpRemoveEdge, U: 1, V: 3}); err != nil {
		t.Fatal(err)
	}
	before := overlayState(o)
	bad := [][]Mutation{
		{{Op: OpAddEdge, U: 0, V: 0}},                              // self loop
		{{Op: OpAddEdge, U: 0, V: 4}},                              // out of range
		{{Op: OpAddEdge, U: -1, V: 0}},                             // negative
		{{Op: OpAddEdge, U: 1, V: 0}},                              // duplicate base edge
		{{Op: OpRemoveEdge, U: 3, V: 1}},                           // removed earlier
		{{Op: OpAddNode, Label: "nope"}},                           // unknown label
		{{Op: OpRelabel, U: 4, Label: "loc"}},                      // unknown node
		{{Op: OpRelabel, U: 0, Label: "nope"}},                     // unknown label
		{{Op: OpAddEdge, U: 0, V: 2}, {Op: OpAddEdge, U: 2, V: 0}}, // added twice in one batch
		{{Op: OpAddEdge, U: 1, V: 3}, {Op: 42}},                    // later mutation invalid
	}
	for i, batch := range bad {
		if err := o.Check(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
		if !reflect.DeepEqual(overlayState(o), before) {
			t.Fatalf("bad batch %d changed the overlay", i)
		}
	}
	good := []Mutation{
		{Op: OpAddNode, Label: "org", Name: "n"},
		{Op: OpAddEdge, U: 4, V: 3},
		{Op: OpAddEdge, U: 1, V: 3}, // re-add the removed edge
		{Op: OpRemoveEdge, U: 3, V: 1},
		{Op: OpAddEdge, U: 3, V: 1},
		{Op: OpRelabel, U: 4, Label: "act"},
	}
	if err := o.Check(good); err != nil {
		t.Fatalf("valid batch refused: %v", err)
	}
	if !reflect.DeepEqual(overlayState(o), before) {
		t.Fatal("Check of a valid batch changed the overlay")
	}
}

// fuzzBytes hands out a fuzz input byte by byte, zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// fuzzOverlayLabels are the labels a fuzzed mutation may name; the last
// is not in the base alphabet.
var fuzzOverlayLabels = []string{"a", "b", "c", "nope"}

// fuzzBatch decodes up to 7 mutations of 3 bytes each over a graph of n
// nodes: op (add_node, add_edge, remove_edge, relabel, or an unknown
// op), then two operands. Node IDs run from -1 to n+6, so batches refer
// to nodes they add and to nodes that do not exist.
func fuzzBatch(in *fuzzBytes, n int) []Mutation {
	muts := make([]Mutation, in.next()%8)
	for i := range muts {
		op, x, y := in.next()%5, in.next(), in.next()
		id := func(b int) NodeID { return NodeID(b%(n+8) - 1) }
		switch op {
		case 0:
			muts[i] = Mutation{Op: OpAddNode, Label: fuzzOverlayLabels[x%4]}
			if y%2 == 1 {
				muts[i].Name = "x"
			}
		case 1:
			muts[i] = Mutation{Op: OpAddEdge, U: id(x), V: id(y)}
		case 2:
			muts[i] = Mutation{Op: OpRemoveEdge, U: id(x), V: id(y)}
		case 3:
			muts[i] = Mutation{Op: OpRelabel, U: id(x), Label: fuzzOverlayLabels[y%4]}
		default:
			muts[i] = Mutation{Op: MutationOp(x % 7 * 16), U: id(y)}
		}
	}
	return muts
}

// FuzzOverlayCheck: on a random base graph, after a random history of
// mutations, Check accepts a random batch exactly when every mutation
// of it applies, in order, to an overlay that took the same history —
// and Check never panics and never changes the overlay it checks. The
// router refuses what Check refuses before sequencing, and a follower
// refusing a sequenced batch latches the fleet failed, so the two must
// agree on every batch.
func FuzzOverlayCheck(f *testing.F) {
	// n-1, labels (bit 2 names the node), edge count, endpoint pairs,
	// then the history and the batch: a count and 3 bytes per mutation.
	f.Add([]byte{2, 0, 1, 2, 1, 0, 1, 0, 3, 1, 2, 3, 2, 2, 3, 1, 2, 3}) // add, remove, re-add one edge
	f.Add([]byte{2, 0, 5, 2, 1, 0, 1, 0, 2, 0, 0, 1, 1, 4, 1})          // edge to the node the batch adds
	f.Add([]byte{2, 0, 1, 2, 0, 0, 2, 0, 3, 0, 3, 10, 0})               // unknown label, out-of-range relabel
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0, 1})                            // negative endpoint
	f.Add([]byte{2, 0, 1, 2, 0, 1, 1, 1, 3, 1, 1, 3, 1})                // re-add of an edge the history added
	f.Add([]byte{3, 4, 1, 2, 0, 3, 0, 1, 1, 2, 2, 3, 1, 2, 1, 2, 2, 1, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%8
		b := NewBuilderWithAlphabet(MustAlphabet("a", "b", "c"))
		for v := 0; v < n; v++ {
			c := in.next()
			if _, err := b.AddLabeledNode(Label(c % 3)); err != nil {
				t.Fatal(err)
			}
			if c&4 != 0 {
				b.SetName(NodeID(v), "n")
			}
		}
		for e := in.next() % 12; e > 0; e-- {
			if u, v := in.next()%n, in.next()%n; u != v {
				if err := b.AddEdge(NodeID(u), NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		g := b.MustBuild()
		history, batch := fuzzBatch(&in, n), fuzzBatch(&in, n)

		o, ref := NewOverlay(g), NewOverlay(g)
		for _, m := range history {
			errO, errRef := o.Apply(m), ref.Apply(m)
			if (errO == nil) != (errRef == nil) {
				t.Fatalf("history mutation %+v applied to one overlay only", m)
			}
		}
		before := overlayState(o)
		err := o.Check(batch)
		if !reflect.DeepEqual(overlayState(o), before) {
			t.Fatalf("Check(%+v) changed the overlay", batch)
		}
		var applyErr error
		for _, m := range batch {
			if applyErr = ref.Apply(m); applyErr != nil {
				break
			}
		}
		if (err == nil) != (applyErr == nil) {
			t.Fatalf("batch %+v after %+v: Check says %v, Apply says %v", batch, history, err, applyErr)
		}
	})
}
