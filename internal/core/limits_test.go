package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hsgf/internal/graph"
)

// denseGraph builds a graph whose censuses are large enough to exercise
// truncation and cancellation.
func denseGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(404))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("a", "b"))
	for i := 0; i < n; i++ {
		b.AddLabeledNode(graph.Label(rng.Intn(2)))
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 8; k++ {
			v := rng.Intn(n)
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.MustBuild()
}

func TestMaxSubgraphsPerRootTruncates(t *testing.T) {
	g := denseGraph(t, 100)
	full, _ := NewExtractor(g, Options{MaxEdges: 4})
	cFull := full.Census(0)
	if cFull.Truncated {
		t.Fatal("unbounded census must not be truncated")
	}
	if cFull.Subgraphs < 1000 {
		t.Fatalf("test graph too sparse: %d subgraphs", cFull.Subgraphs)
	}

	budget := int64(500)
	capped, _ := NewExtractor(g, Options{MaxEdges: 4, MaxSubgraphsPerRoot: budget})
	c := capped.Census(0)
	if !c.Truncated {
		t.Fatal("capped census must be flagged truncated")
	}
	// Budget is enforced up to one leaf-batch of slack.
	if c.Subgraphs < budget || c.Subgraphs > budget+int64(g.MaxDegree()) {
		t.Fatalf("truncated at %d subgraphs, want ≈ %d", c.Subgraphs, budget)
	}
	var sum int64
	for _, n := range c.Counts {
		sum += n
	}
	if sum != c.Subgraphs {
		t.Fatal("truncated counts inconsistent with total")
	}
}

// TestTruncationLeavesWorkerStateClean: a worker whose root was cut
// short by the subgraph budget must start its next root exact. The
// budget sits just above the smallest root's census, so the largest
// root truncates and the smallest fits; both run on one worker, which
// is what the pool would hand on (it drops only visibly dirty ones).
func TestTruncationLeavesWorkerStateClean(t *testing.T) {
	g := denseGraph(t, 60)
	fresh, _ := NewExtractor(g, Options{MaxEdges: 3})
	small, big := graph.NodeID(0), graph.NodeID(0)
	sizes := make([]int64, g.NumNodes())
	for v := range sizes {
		sizes[v] = fresh.Census(graph.NodeID(v)).Subgraphs
		if sizes[v] < sizes[small] {
			small = graph.NodeID(v)
		}
		if sizes[v] > sizes[big] {
			big = graph.NodeID(v)
		}
	}
	budget := sizes[small] + 1
	if sizes[big] < 2*budget {
		t.Fatalf("largest census %d is too close to the smallest %d to truncate it alone", sizes[big], sizes[small])
	}
	ex, _ := NewExtractor(g, Options{MaxEdges: 3, MaxSubgraphsPerRoot: budget})
	w := ex.getWorker(censusRun{})
	if c := w.census(big); !c.Truncated {
		t.Fatalf("root %d (%d subgraphs) not truncated at budget %d", big, sizes[big], budget)
	}
	if !w.clean() {
		t.Fatal("worker left dirty by a truncated root")
	}
	got := w.census(small)
	if got.Truncated {
		t.Fatal("small census should not be truncated")
	}
	if want := fresh.Census(small); !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatal("state leaked from the truncated root into the next census")
	}
}

func TestCensusAllContextCancellation(t *testing.T) {
	g := denseGraph(t, 400)
	ex, _ := NewExtractor(g, Options{MaxEdges: 5})
	roots := make([]graph.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	cs, err := ex.CensusAllContext(ctx, roots, 2)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	var done, truncated, pending int
	for _, c := range cs {
		switch {
		case c == nil:
			pending++
		case c.Truncated:
			truncated++
		default:
			done++
		}
	}
	if pending == 0 {
		t.Error("expected pending roots after early cancellation")
	}
	t.Logf("done=%d truncated=%d pending=%d in %v", done, truncated, pending, elapsed)
}

func TestCensusAllContextCompletesWithoutCancel(t *testing.T) {
	g := denseGraph(t, 30)
	ex, _ := NewExtractor(g, Options{MaxEdges: 2})
	roots := []graph.NodeID{0, 1, 2}
	cs, err := ex.CensusAllContext(context.Background(), roots, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if c == nil || c.Truncated {
			t.Fatalf("root %d incomplete without cancellation", i)
		}
	}
	// Results match plain CensusAll.
	plain := ex.CensusAll(roots, 1)
	for i := range roots {
		if !reflect.DeepEqual(cs[i].Counts, plain[i].Counts) {
			t.Fatal("context path disagrees with plain path")
		}
	}
}
