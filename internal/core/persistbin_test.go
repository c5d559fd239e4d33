package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMappedGraphBehavesIdentically is the property test pinning the
// whole binary path: a graph saved as a binary snapshot and loaded back
// through the mapped path must be observationally identical to the
// Builder-built original — same Edges iteration, same alphabet, and
// byte-for-byte the same census rows under the production extractor.
func TestMappedGraphBehavesIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		orig := randomLabelled(rng, 8+rng.Intn(24), 1+rng.Intn(3), 0.15+rng.Float64()*0.3)
		st := openTestStore(t)
		if _, err := SaveGraphSnapshots(st, orig); err != nil {
			t.Fatal(err)
		}
		loaded, gen, err := LoadGraphSnapshotAuto(st)
		if err != nil {
			t.Fatal(err)
		}
		if gen != 1 {
			t.Fatalf("generation %d, want 1", gen)
		}
		if loaded.NumNodes() != orig.NumNodes() || loaded.NumEdges() != orig.NumEdges() {
			t.Fatalf("shape changed: %v vs %v", loaded, orig)
		}
		if !reflect.DeepEqual(loaded.Alphabet().Names(), orig.Alphabet().Names()) {
			t.Fatal("alphabet changed across the mapped round trip")
		}
		var origEdges, loadedEdges [][2]graph.NodeID
		orig.Edges(func(u, v graph.NodeID) bool { origEdges = append(origEdges, [2]graph.NodeID{u, v}); return true })
		loaded.Edges(func(u, v graph.NodeID) bool { loadedEdges = append(loadedEdges, [2]graph.NodeID{u, v}); return true })
		if !reflect.DeepEqual(origEdges, loadedEdges) {
			t.Fatal("Edges iteration changed across the mapped round trip")
		}

		opts := Options{MaxEdges: 2, KeyMode: KeyMode(rng.Intn(2)), MaskRootLabel: rng.Intn(2) == 0}
		eo, err := NewExtractor(orig, opts)
		if err != nil {
			t.Fatal(err)
		}
		el, err := NewExtractor(loaded, opts)
		if err != nil {
			t.Fatal(err)
		}
		co := eo.CensusAll(allRoots(orig), 2)
		cl := el.CensusAll(allRoots(loaded), 2)
		for i := range co {
			if co[i].Subgraphs != cl[i].Subgraphs || !reflect.DeepEqual(co[i].Counts, cl[i].Counts) {
				t.Fatalf("trial %d: census of root %d diverged on the mapped graph", trial, i)
			}
		}
	}
}

// TestMappedLoadQuarantinesAndFallsBack damages the newest binary
// generation on disk; the mapped loader must quarantine it and serve
// the older good one, as every store loader does.
func TestMappedLoadQuarantinesAndFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gOld := randomLabelled(rng, 12, 2, 0.3)
	gNew := randomLabelled(rng, 20, 2, 0.3)

	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)*2/3] },
		"bit-flip":  func(b []byte) []byte { b[len(b)/3] ^= 0x10; return b },
	} {
		t.Run(name, func(t *testing.T) {
			st := openTestStore(t)
			if _, err := SaveGraphSnapshots(st, gOld); err != nil {
				t.Fatal(err)
			}
			gen2, err := SaveGraphSnapshots(st, gNew)
			if err != nil {
				t.Fatal(err)
			}
			path := st.Path(ArtifactGraphBin, gen2)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(append([]byte{}, pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			g, gen, err := LoadGraphSnapshotAuto(st)
			if err != nil {
				t.Fatal(err)
			}
			if gen == gen2 {
				t.Fatal("damaged generation served")
			}
			if g.NumNodes() != gOld.NumNodes() {
				t.Fatalf("served %d nodes, want the older generation's %d", g.NumNodes(), gOld.NumNodes())
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("damaged generation not quarantined: %v", err)
			}
		})
	}
}

// TestAutoLoadSingleKindFallbacks covers the stores the loader meets at
// boot: one holding graph generations, one holding only a generation of
// the retired TSV "graph" kind (never read, so the store counts as
// empty), and an empty one.
func TestAutoLoadSingleKindFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := randomLabelled(rng, 10, 2, 0.3)

	binOnly := openTestStore(t)
	if _, err := SaveGraphSnapshots(binOnly, g); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadGraphSnapshotAuto(binOnly); err != nil {
		t.Fatalf("binary store: %v", err)
	}

	tsvOnly := openTestStore(t)
	var tsv bytes.Buffer
	if err := graph.WriteTSV(&tsv, g); err != nil {
		t.Fatal(err)
	}
	sections, err := artifactSections("graph", tsv.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tsvOnly.Write("graph", sections); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadGraphSnapshotAuto(tsvOnly); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("store holding only the retired TSV kind gave %v, want ErrNotFound", err)
	}

	if _, _, err := LoadGraphSnapshotAuto(openTestStore(t)); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("empty store gave %v, want ErrNotFound", err)
	}
}

// TestReadGraphFileSniffsFormats feeds every on-disk graph shape through
// the one-call import path, and refuses envelopes holding anything else.
func TestReadGraphFileSniffsFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	g := randomLabelled(rng, 12, 2, 0.3)
	st := openTestStore(t)
	binGen, err := SaveGraphSnapshots(st, g)
	if err != nil {
		t.Fatal(err)
	}
	// An envelope of another kind: the checkpoint framing, written as
	// a store generation.
	sections, err := artifactSections(ArtifactCheckpoint, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	ckGen, err := st.Write(ArtifactCheckpoint, sections)
	if err != nil {
		t.Fatal(err)
	}
	bare := st.Dir() + "/bare.tsv"
	f, err := os.Create(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteTSV(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for name, tc := range map[string]struct {
		path string
		ok   bool
	}{
		"binary-envelope":     {st.Path(ArtifactGraphBin, binGen), true},
		"bare-tsv":            {bare, true},
		"checkpoint-envelope": {st.Path(ArtifactCheckpoint, ckGen), false},
	} {
		loaded, err := ReadGraphFile(tc.path)
		if !tc.ok {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: graph changed", name)
		}
	}
	if _, err := ReadGraphFile(st.Dir() + "/absent"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestMappedLoadIsZeroCopy asserts the acceptance criterion that the
// mapped boot path allocates O(1) heap for CSR payloads: loading a graph
// whose CSR arrays span megabytes must cost only envelope bookkeeping,
// not bytes proportional to the payload.
func TestMappedLoadIsZeroCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("zero-copy mapping is unix-only")
	}
	// ~200k incidences => ~3.2MB of CSR payload.
	rng := rand.New(rand.NewSource(77))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("a", "b", "c"))
	const n = 20000
	for i := 0; i < n; i++ {
		b.AddLabeledNode(graph.Label(i % 3))
	}
	for i := 0; i < 5*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	g := b.MustBuild()
	st := openTestStore(t)
	if _, err := SaveGraphSnapshots(st, g); err != nil {
		t.Fatal(err)
	}
	payloadBytes := 4 * (len(allRoots(g)) + 6*g.NumEdges()) // labels + 3×incidence arrays, roughly

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	loaded, _, err := LoadGraphSnapshotAuto(st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	heap := int(after.TotalAlloc - before.TotalAlloc)
	if heap > payloadBytes/16 {
		t.Fatalf("mapped load allocated %d heap bytes for a ~%d byte CSR payload; the zero-copy path is not engaging", heap, payloadBytes)
	}
	runtime.KeepAlive(loaded)
}

// TestNewerGraphGenerationRefused: the newest graphbin generation was
// written by a newer binary, at schema+1 with a section this reader
// does not know. The mapped loader and ReadGraphFile must refuse it as
// ErrUnsupportedVersion (not ErrCorrupt), leave the file under its own
// name, and serve nothing older in its place. A damaged newest
// generation is still quarantined with fall-back, as
// TestMappedLoadQuarantinesAndFallsBack pins.
func TestNewerGraphGenerationRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st := openTestStore(t)
	if _, err := SaveGraphSnapshots(st, randomLabelled(rng, 12, 2, 0.3)); err != nil {
		t.Fatal(err)
	}
	payload, err := graph.EncodeBinary(randomLabelled(rng, 20, 2, 0.3), 0)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := ArtifactSections(ArtifactGraphBin, artifactSchema+1,
		store.Section{Name: ArtifactGraphBin, Payload: payload},
		store.Section{Name: "edgetypes", Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := st.Write(ArtifactGraphBin, sections)
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path(ArtifactGraphBin, gen)

	g, _, err := LoadGraphSnapshotAuto(st)
	if !errors.Is(err, store.ErrUnsupportedVersion) || errors.Is(err, store.ErrCorrupt) || g != nil {
		t.Fatalf("LoadGraphSnapshotAuto = (%v, %v), want no graph and ErrUnsupportedVersion", g, err)
	}
	if _, err := ReadGraphFile(path); !errors.Is(err, store.ErrUnsupportedVersion) {
		t.Fatalf("ReadGraphFile = %v, want ErrUnsupportedVersion", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("newer generation lost its name: %v", err)
	}
	if gens, err := st.Generations(ArtifactGraphBin); err != nil || len(gens) != 2 {
		t.Fatalf("generations %v (%v), want both kept", gens, err)
	}
}

// TestStoreWriteAllocBudget gates the streamed write path: saving a
// 10⁴-node hierarchical graph allocates under a quarter of the file it
// writes. A write that held the payload in memory would allocate at
// least the file size; streaming allocates the write buffers and a
// little framing, whatever the graph's size.
func TestStoreWriteAllocBudget(t *testing.T) {
	cfg := datagen.DefaultHierarchicalConfig(10_000)
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet(cfg.Labels...))
	if _, err := datagen.PopulateHierarchical(cfg, b); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen, err := SaveGraphSnapshots(st, g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.Path(ArtifactGraphBin, gen))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("SaveGraphSnapshots allocated %d bytes for a %d-byte file (%.3f of it)", alloc, fi.Size(), float64(alloc)/float64(fi.Size()))
	if alloc*4 >= uint64(fi.Size()) {
		t.Fatalf("SaveGraphSnapshots allocated %d bytes, over a quarter of the %d-byte file", alloc, fi.Size())
	}
}
