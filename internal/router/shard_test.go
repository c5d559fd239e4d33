package router

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hsgf/internal/graph"
)

// TestShardIDTableMatchesMapReference drives a shard's dense ID table
// through a random fleet-ingest growth sequence, mixing existing nodes
// that join the shard's halo with new nodes past the table's end, and
// checks every lookup against a map[int64]int64 reference. localOf
// must answer false for negative IDs and IDs past the end. Readers run
// beside the growth, as feature requests do; the members the manifest
// mapped keep their local IDs throughout.
func TestShardIDTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const boot = 400
	var l2g []graph.NodeID
	for _, v := range rng.Perm(boot) {
		if rng.Intn(3) > 0 {
			l2g = append(l2g, graph.NodeID(v))
		}
	}
	ref := make(map[int64]int64, len(l2g))
	for local, global := range l2g {
		ref[int64(global)] = int64(local)
	}
	sh := &shard{}
	sh.setIDs(l2g, boot)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(len(l2g))
				if l, ok := sh.localOf(int64(l2g[i])); !ok || l != int64(i) {
					t.Errorf("manifest member %d read as (%d, %v) during growth, want (%d, true)", l2g[i], l, ok, i)
					return
				}
			}
		}(int64(r))
	}

	fleetNodes := int64(boot)
	for batch := 0; batch < 60; batch++ {
		var globals []int64
		for k := rng.Intn(6); k > 0; k-- {
			if rng.Intn(2) == 0 {
				// An existing node joins the halo.
				g := rng.Int63n(fleetNodes)
				if _, member := ref[g]; member || slices.Contains(globals, g) {
					continue
				}
				globals = append(globals, g)
			} else {
				// New nodes; some land on other shards, so the table
				// can skip IDs past its end.
				fleetNodes += 1 + rng.Int63n(3)
				globals = append(globals, fleetNodes-1)
			}
		}
		sh.growIDs(globals)
		for _, g := range globals {
			ref[g] = int64(len(ref))
		}
		for g := int64(-3); g < fleetNodes+3; g++ {
			want, wantOK := ref[g]
			if got, ok := sh.localOf(g); ok != wantOK || (ok && got != want) {
				t.Fatalf("batch %d: localOf(%d) = (%d, %v), want (%d, %v)", batch, g, got, ok, want, wantOK)
			}
		}
	}
	close(stop)
	wg.Wait()
	if int(sh.members) != len(ref) {
		t.Fatalf("table counts %d members, reference %d", sh.members, len(ref))
	}
}
