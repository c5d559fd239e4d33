package ingest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// TestSnapshotBytesPinned pins the ingest snapshot's on-disk bytes: the
// [meta, ingestmeta, graph] framing and every payload encoding. A
// change here strands every store's compacted ingest state, so it must
// come with an ingestSchema bump, not by accident.
func TestSnapshotBytesPinned(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.CompactEvery = 2
	e := openEngine(t, cfg)
	batches := [][]graph.Mutation{
		{{Op: graph.OpAddNode, Label: "org"}, {Op: graph.OpAddEdge, U: 4, V: 0}},
		{{Op: graph.OpAddEdge, U: 0, V: 2}},
		{{Op: graph.OpRelabel, U: 3, Label: "act"}},
		{{Op: graph.OpRemoveEdge, U: 1, V: 3}},
		{{Op: graph.OpAddNode, Label: "act"}, {Op: graph.OpAddEdge, U: 5, V: 3}},
		{{Op: graph.OpAddEdge, U: 4, V: 2}},
	}
	for i, muts := range batches {
		if _, err := e.Apply(context.Background(), fmt.Sprintf("b%d", i), muts); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want := []string{
		"80d6b9c528fd75ceffbaf13ea4e25becf90af671ffcf80cda9775e3066c4db8b",
		"b38cfa45bf6ab848f54ed34815ae75a5158e242d917408f209d38941a7c219b4",
		"457c584d1b184aed516d8351d7b45b190236a8564bf17d353d144a695c6c35f9",
		"d315bf11b405b0756398bd9b5f183bb3cd91d8dd3fdf461b84a167115245b21e",
	}
	for i, sum := range want {
		data, err := os.ReadFile(cfg.Store.Path(ArtifactIngest, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("generation %d: sha256 %s, want %s", i+1, got, sum)
		}
	}
}

// schema1Fixture is a store written by the schema-1 engine, which kept
// the census rows in its snapshot: seeded from seedGraph at
// CompactEvery 3 and fed schema1Batches, so its generation 2 folds
// sequences 1-3 and its ingest.wal holds 4-5.
const schema1Fixture = "testdata/schema1"

var schema1Batches = []struct {
	id   string
	muts []graph.Mutation
}{
	{"f1.alpha", []graph.Mutation{{Op: graph.OpAddNode, Label: "org"}, {Op: graph.OpAddEdge, U: 4, V: 0}}},
	{"plain-2", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}},
	{"f3.beta", []graph.Mutation{{Op: graph.OpRelabel, U: 3, Label: "act"}}},
	{"f4.gamma", []graph.Mutation{{Op: graph.OpRemoveEdge, U: 1, V: 3}}},
	{"plain-5", []graph.Mutation{{Op: graph.OpAddNode, Label: "loc", Name: "n5"}, {Op: graph.OpAddEdge, U: 5, V: 2}}},
}

// TestSchema1SnapshotUpgrades boots a copy of the schema-1 fixture: it
// must load with its graph, watermark, applied index and fleet
// watermark, replay its WAL tail, and compact into a schema-2
// generation, with nothing quarantined.
func TestSchema1SnapshotUpgrades(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"ingest-g0000000002.snap", "ingest.wal"} {
		data, err := os.ReadFile(filepath.Join(schema1Fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig(t, dir)
	cfg.CompactEvery = 1
	e, err := Open(cfg, nil) // no seed: only the fixture can boot it
	if err != nil {
		t.Fatalf("Open over the schema-1 fixture: %v", err)
	}
	defer e.Close()

	oracle := openEngine(t, testConfig(t, t.TempDir()))
	ctx := context.Background()
	for _, b := range schema1Batches {
		if _, err := oracle.Apply(ctx, b.id, b.muts); err != nil {
			t.Fatal(err)
		}
	}
	assertEqualStates(t, oracle, e)
	g, _, _, gen, _ := e.State()
	if g.Name(5) != "n5" {
		t.Errorf("node 5 is named %q, want n5", g.Name(5))
	}
	if s := e.Stats(); gen != 2 || s.RecoveredRecords != 2 || s.IndexEntries != len(schema1Batches) {
		t.Fatalf("booted generation %d, recovered %d WAL records, %d index entries; want 2, 2, %d",
			gen, s.RecoveredRecords, s.IndexEntries, len(schema1Batches))
	}
	if wm := e.FleetWatermark(); wm != 4 {
		t.Fatalf("fleet watermark %d, want 4", wm)
	}
	// A batch folded into the schema-1 snapshot still acks as a replay.
	if res, err := e.Apply(ctx, "f1.alpha", schema1Batches[0].muts); err != nil || !res.Replayed || res.Seq != 1 {
		t.Fatalf("replay of a folded batch: %+v, %v", res, err)
	}

	if _, err := e.Apply(ctx, "b6", []graph.Mutation{{Op: graph.OpAddEdge, U: 4, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Compactions != 1 || s.Generation != 3 {
		t.Fatalf("after one batch at CompactEvery 1: %d compactions, generation %d", s.Compactions, s.Generation)
	}
	e.Close()
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(bad) != 0 {
		t.Fatalf("quarantined %v", bad)
	}
	env, err := store.ReadFile(cfg.Store.Path(ArtifactIngest, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := parseSnapshot(env); err != nil || len(env.Sections) != 3 || st.meta.Schema != ingestSchema {
		t.Fatalf("compacted generation: %d sections, parse error %v", len(env.Sections), err)
	}

	e2 := openEngine(t, cfg)
	assertEqualStates(t, e, e2)
	if s, wm := e2.Stats(), e2.FleetWatermark(); s.Generation != 3 || s.RecoveredRecords != 0 || wm != 4 {
		t.Fatalf("reboot from schema 2: generation %d, %d recovered records, fleet watermark %d", s.Generation, s.RecoveredRecords, wm)
	}
}

// TestEngineRefusesTypedSeed pins that a typed seed graph is refused at
// Open, because the snapshot's graphbin codec has no edge-type section,
// and that nothing reaches the store.
func TestEngineRefusesTypedSeed(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	_, err := Open(cfg, func() (*graph.Graph, error) {
		b := graph.NewTypedBuilder(false)
		for _, l := range []string{"p", "a"} {
			if _, err := b.AddNode(l); err != nil {
				return nil, err
			}
		}
		if err := b.AddEdge(0, 1, "writes"); err != nil {
			return nil, err
		}
		return b.Build()
	})
	if !errors.Is(err, graph.ErrEdgeTyped) {
		t.Fatalf("Open with a typed seed: %v, want ErrEdgeTyped", err)
	}
	if gens, err := cfg.Store.Generations(ArtifactIngest); err != nil || len(gens) != 0 {
		t.Fatalf("store holds generations %v (%v) after a refused seed", gens, err)
	}
}

// TestNewerSnapshotRefused: the newest ingest generation was written by
// a newer binary (schema+1, with an extra section). Open must fail with
// ErrUnsupportedVersion and keep the file under its name rather than
// quarantine it and boot the older generation, which would drop the
// batches the newer writer acked. A bit-flipped newest generation is
// still quarantined and the older one served.
func TestNewerSnapshotRefused(t *testing.T) {
	g, err := seedGraph()
	if err != nil {
		t.Fatal(err)
	}
	writeGenerations := func(t *testing.T, cfg Config) (newest uint64) {
		t.Helper()
		for seq := uint64(1); seq <= 2; seq++ {
			sections, err := snapshotSections(&ingestState{meta: ingestMeta{Schema: ingestSchema, LastSeq: seq}, g: g})
			if err != nil {
				t.Fatal(err)
			}
			if newest, err = cfg.Store.Write(ArtifactIngest, sections); err != nil {
				t.Fatal(err)
			}
		}
		return newest
	}

	t.Run("newer schema", func(t *testing.T) {
		cfg := testConfig(t, t.TempDir())
		writeGenerations(t, cfg)
		current, err := snapshotSections(&ingestState{meta: ingestMeta{Schema: ingestSchema + 1, LastSeq: 4}, g: g})
		if err != nil {
			t.Fatal(err)
		}
		sections, err := core.ArtifactSections(ArtifactIngest, ingestSchema+1,
			append(current[1:], store.Section{Name: "overlay", Payload: []byte("v3 data")})...)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := cfg.Store.Write(ArtifactIngest, sections)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(cfg, seedGraph)
		if err == nil {
			e.Close()
		}
		if !errors.Is(err, store.ErrUnsupportedVersion) || errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open over a newer generation: %v, want ErrUnsupportedVersion", err)
		}
		if _, err := os.Stat(cfg.Store.Path(ArtifactIngest, gen)); err != nil {
			t.Fatalf("newer generation lost its name: %v", err)
		}
		if bad, _ := filepath.Glob(filepath.Join(cfg.Store.Dir(), "*.corrupt")); len(bad) != 0 {
			t.Fatalf("quarantined %v", bad)
		}
	})

	t.Run("bit flip", func(t *testing.T) {
		cfg := testConfig(t, t.TempDir())
		gen := writeGenerations(t, cfg)
		path := cfg.Store.Path(ArtifactIngest, gen)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := openEngine(t, cfg)
		if _, _, _, served, lastSeq := e.State(); served != gen-1 || lastSeq != 1 {
			t.Fatalf("served generation %d at watermark %d, want the older generation %d at 1", served, lastSeq, gen-1)
		}
		if _, err := os.Stat(path + ".corrupt"); err != nil {
			t.Fatalf("damaged generation not quarantined: %v", err)
		}
	})
}

// FuzzParseIngestSnapshot fuzzes the section payloads of an ingest
// snapshot inside a valid envelope: meta, ingestmeta and graph, plus a
// featureset section when schema1 is set. parseSnapshot must never
// panic, must type every refusal so the store quarantines (or, for a
// newer schema, refuses) the generation, and must accept only graphs
// that pass Validate.
func FuzzParseIngestSnapshot(f *testing.F) {
	add := func(sections []store.Section) {
		var p [4][]byte
		for i, sec := range sections {
			p[i] = sec.Payload
			if sec.Stream != nil {
				var buf bytes.Buffer
				if err := sec.Stream(&buf); err != nil {
					f.Fatal(err)
				}
				p[i] = buf.Bytes()
			}
		}
		f.Add(p[0], p[1], p[2], p[3], len(sections) == 4)
	}
	env, err := store.ReadFile(filepath.Join(schema1Fixture, "ingest-g0000000002.snap"))
	if err != nil {
		f.Fatal(err)
	}
	add(env.Sections)
	g, err := seedGraph()
	if err != nil {
		f.Fatal(err)
	}
	sections, err := snapshotSections(&ingestState{
		meta: ingestMeta{Schema: ingestSchema, LastSeq: 2, Batches: map[string]uint64{"f2.a": 2, "b1": 1}},
		g:    g,
	})
	if err != nil {
		f.Fatal(err)
	}
	add(sections)

	f.Fuzz(func(t *testing.T, meta, watermark, graphPayload, featureset []byte, schema1 bool) {
		sections := []store.Section{
			{Name: "meta", Payload: meta},
			{Name: "ingestmeta", Payload: watermark},
			{Name: "graph", Payload: graphPayload},
		}
		if schema1 {
			sections = append(sections, store.Section{Name: "featureset", Payload: featureset})
		}
		data, err := store.EncodeEnvelope(sections)
		if err != nil {
			t.Fatal(err)
		}
		env, err := store.ParseEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		st, err := parseSnapshot(env)
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrUnsupportedVersion) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if err := st.g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
	})
}
