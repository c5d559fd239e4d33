package core

import (
	"math/rand"
	"testing"

	"hsgf/internal/graph"
)

func TestIncrementalHashMatchesFromScratch(t *testing.T) {
	// Every key the census produces in rolling mode must equal the
	// from-scratch hash of its decoded canonical sequence.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		g := randomLabelled(rng, 6+rng.Intn(8), 1+rng.Intn(3), 0.35)
		opts := Options{MaxEdges: 1 + rng.Intn(4), MaskRootLabel: trial%2 == 0}
		e, err := NewExtractor(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			c := e.Census(graph.NodeID(v))
			for key := range c.Counts {
				s, ok := e.Decode(key)
				if !ok {
					t.Fatalf("key %x has no representative", key)
				}
				if got := e.pows.hashSequence(s); got != key {
					t.Fatalf("trial %d root %d: incremental key %x != from-scratch %x for %v",
						trial, v, key, got, s.Values)
				}
			}
		}
	}
}

func TestHashDistinguishesLinearCollisions(t *testing.T) {
	// The raw (unmixed) rolling sum of the paper's Eq. (5) cannot tell a
	// claw apart from a path when all nodes share one label: both have
	// typed-degree multiset sums 1+1+1+3 = 1+1+2+2. The mixed hash must
	// distinguish them.
	pows := newPowerTable(1, 1)
	claw := Sequence{K: 1, Values: []int32{0, 3, 0, 1, 0, 1, 0, 1}}
	path := Sequence{K: 1, Values: []int32{0, 2, 0, 2, 0, 1, 0, 1}}
	if pows.hashSequence(claw) == pows.hashSequence(path) {
		t.Fatal("mixed hash failed to separate claw from path")
	}
}

func TestHashLabelSensitivity(t *testing.T) {
	// Same shape, different node labels must hash differently.
	pows := newPowerTable(2, 1)
	e1 := Sequence{K: 2, Values: []int32{0, 0, 1, 1, 1, 0}} // a-b edge
	e2 := Sequence{K: 2, Values: []int32{0, 1, 0, 0, 0, 1}} // a-a edge... wait, keep simple:
	if pows.hashSequence(e1) == pows.hashSequence(e2) {
		t.Fatal("hash ignores labels")
	}
}

func TestFnvSequenceDistinct(t *testing.T) {
	s1 := Sequence{K: 1, Values: []int32{0, 1, 0, 1}}
	s2 := Sequence{K: 1, Values: []int32{0, 1, 0, 2}}
	if fnvSequence(s1) == fnvSequence(s2) {
		t.Error("fnv digest should differ for different sequences")
	}
	if fnvSequence(s1) != fnvSequence(Sequence{K: 1, Values: []int32{0, 1, 0, 1}}) {
		t.Error("fnv digest must be deterministic")
	}
}

func TestSplitmix64Deterministic(t *testing.T) {
	if splitmix64(1) != splitmix64(1) {
		t.Error("splitmix64 not deterministic")
	}
	if splitmix64(1) == splitmix64(2) {
		t.Error("splitmix64(1) == splitmix64(2): suspicious")
	}
}
