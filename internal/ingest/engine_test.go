package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// seedGraph builds 0(loc)-1(org)-2(act)-3(loc), 1-3.
func seedGraph() (*graph.Graph, error) {
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("loc", "org", "act"))
	for _, l := range []string{"loc", "org", "act", "loc"} {
		if _, err := b.AddNode(l); err != nil {
			return nil, err
		}
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {1, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Store: st,
		Opts:  core.Options{MaxEdges: 2},
	}
}

func openEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg, seedGraph)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func sameCounts(a, b map[uint64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// assertEqualStates compares two engines' graphs and watermarks.
func assertEqualStates(t *testing.T, a, b *Engine) {
	t.Helper()
	ga, _, _, _, seqA := a.State()
	gb, _, _, _, seqB := b.State()
	if seqA != seqB {
		t.Fatalf("watermarks differ: %d vs %d", seqA, seqB)
	}
	if ga.NumNodes() != gb.NumNodes() || ga.NumEdges() != gb.NumEdges() {
		t.Fatalf("graphs differ: %s vs %s", ga, gb)
	}
	for v := 0; v < ga.NumNodes(); v++ {
		if ga.Label(graph.NodeID(v)) != gb.Label(graph.NodeID(v)) {
			t.Fatalf("node %d label differs", v)
		}
	}
	equal := true
	ga.Edges(func(u, v graph.NodeID) bool {
		equal = gb.HasEdge(u, v)
		return equal
	})
	if !equal {
		t.Fatal("edge sets differ")
	}
}

func TestEngineSeedAndApply(t *testing.T) {
	e := openEngine(t, testConfig(t, t.TempDir()))
	g, _, _, gen, seq := e.State()
	if g.NumNodes() != 4 || gen != 1 || seq != 0 {
		t.Fatalf("seed state: %s, gen %d, seq %d", g, gen, seq)
	}

	res, err := e.Apply(context.Background(), "b1", []graph.Mutation{
		{Op: graph.OpAddNode, Label: "org", Name: "n4"},
		{Op: graph.OpAddEdge, U: 4, V: 0},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Seq != 1 || res.Replayed {
		t.Fatalf("result %+v", res)
	}
	if res.Graph.NumNodes() != 5 || !res.Graph.HasEdge(0, 4) {
		t.Fatalf("mutated graph %s", res.Graph)
	}
	// The new node and its neighbourhood are dirty; with emax=2 the
	// ball around {0,4} covers 0,1,4 plus 0's and 1's neighbours.
	found := false
	for _, r := range res.DirtyRoots {
		if r == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("added node missing from dirty roots %v", res.DirtyRoots)
	}
}

func TestEngineRejectsInvalidBatchAtomically(t *testing.T) {
	e := openEngine(t, testConfig(t, t.TempDir()))
	before := e.Stats()
	// Second mutation is invalid (self loop): the whole batch must be
	// rejected with nothing written.
	_, err := e.Apply(context.Background(), "bad", []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 2},
		{Op: graph.OpAddEdge, U: 1, V: 1},
	})
	if !errors.Is(err, ErrBatchInvalid) {
		t.Fatalf("err = %v, want ErrBatchInvalid", err)
	}
	after := e.Stats()
	if after.LastSeq != before.LastSeq || after.WALBytes != before.WALBytes {
		t.Fatalf("rejected batch left traces: %+v -> %+v", before, after)
	}
	g, _, _, _, _ := e.State()
	if g.HasEdge(0, 2) {
		t.Fatal("first mutation of rejected batch was applied")
	}
	if _, err := e.Apply(context.Background(), "bad", []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 2},
	}); err != nil || e.Stats().LastSeq != 1 {
		t.Fatalf("batch id of a rejected batch must stay usable: %v", err)
	}
	// Empty and oversized batches are rejected up front.
	if _, err := e.Apply(context.Background(), "empty", nil); !errors.Is(err, ErrBatchInvalid) {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestEngineIdempotency(t *testing.T) {
	e := openEngine(t, testConfig(t, t.TempDir()))
	muts := []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}
	first, err := e.Apply(context.Background(), "b1", muts)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := e.Apply(context.Background(), "b1", muts)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !replay.Replayed || replay.Seq != first.Seq {
		t.Fatalf("replay result %+v", replay)
	}
	if s := e.Stats(); s.Applied != 1 || s.Replayed != 1 || s.LastSeq != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEngineRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	e := openEngine(t, cfg)
	ctx := context.Background()
	if _, err := e.Apply(ctx, "b1", []graph.Mutation{{Op: graph.OpAddNode, Label: "loc"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(ctx, "b2", []graph.Mutation{{Op: graph.OpAddEdge, U: 4, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(ctx, "b3", []graph.Mutation{{Op: graph.OpRelabel, U: 0, Label: "act"}}); err != nil {
		t.Fatal(err)
	}
	e.Close() // no compaction ran (CompactEvery default 64): state lives in seed snapshot + WAL

	e2 := openEngine(t, cfg)
	if s := e2.Stats(); s.RecoveredRecords != 3 {
		t.Fatalf("recovered %d records, want 3", s.RecoveredRecords)
	}
	assertEqualStates(t, e, e2)
	// Replays of recovered batches are recognised.
	res, err := e2.Apply(ctx, "b2", []graph.Mutation{{Op: graph.OpAddEdge, U: 4, V: 1}})
	if err != nil || !res.Replayed {
		t.Fatalf("post-recovery replay: %+v, %v", res, err)
	}
}

func TestEngineCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.CompactEvery = 2
	e := openEngine(t, cfg)
	ctx := context.Background()
	if _, err := e.Apply(ctx, "b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Compactions != 0 {
		t.Fatalf("compacted early: %+v", s)
	}
	if _, err := e.Apply(ctx, "b2", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Compactions != 1 || s.Generation < 2 {
		t.Fatalf("stats after compaction %+v", s)
	}
	// WAL folded away: only the header remains.
	fi, err := os.Stat(filepath.Join(dir, "ingest.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 12 {
		t.Fatalf("WAL is %d bytes after compaction, want header only", fi.Size())
	}
	e.Close()

	// Recovery from the compacted snapshot alone.
	e2 := openEngine(t, cfg)
	if s := e2.Stats(); s.RecoveredRecords != 0 || s.LastSeq != 2 {
		t.Fatalf("post-compaction recovery stats %+v", s)
	}
	assertEqualStates(t, e, e2)
	// Idempotency survives compaction: the applied index was persisted.
	res, err := e2.Apply(ctx, "b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}})
	if err != nil || !res.Replayed {
		t.Fatalf("replay across compaction: %+v, %v", res, err)
	}
}

func TestEngineTornWALTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	e := openEngine(t, cfg)
	ctx := context.Background()
	if _, err := e.Apply(ctx, "b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	walPath := filepath.Join(dir, "ingest.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("WREC\x07torn"))
	f.Close()

	e2 := openEngine(t, cfg)
	if s := e2.Stats(); s.RecoveredRecords != 1 || s.LastSeq != 1 {
		t.Fatalf("stats after torn-tail recovery %+v", s)
	}
	g, _, _, _, _ := e2.State()
	if !g.HasEdge(0, 2) {
		t.Fatal("acked batch lost to torn tail")
	}
}

func TestEngineIndexEviction(t *testing.T) {
	cfg := testConfig(t, t.TempDir())
	cfg.MaxIndexEntries = 2
	e := openEngine(t, cfg)
	ctx := context.Background()
	batches := []graph.Mutation{
		{Op: graph.OpAddEdge, U: 0, V: 2},
		{Op: graph.OpAddEdge, U: 0, V: 3},
		{Op: graph.OpAddNode, Label: "loc"},
	}
	for i, m := range batches {
		if _, err := e.Apply(ctx, string(rune('a'+i)), []graph.Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.IndexEntries != 2 {
		t.Fatalf("index holds %d entries, want 2", s.IndexEntries)
	}
	// The two newest batches are still recognised; the oldest fell out.
	if res, err := e.Apply(ctx, "c", []graph.Mutation{batches[2]}); err != nil || !res.Replayed {
		t.Fatalf("newest batch not recognised: %v", err)
	}
	if _, err := e.Apply(ctx, "a", []graph.Mutation{batches[0]}); !errors.Is(err, ErrBatchInvalid) {
		// Evicted, so it is treated as new — and its duplicate edge now
		// fails validation rather than double-applying.
		t.Fatalf("evicted batch replay: %v", err)
	}
}

// TestEngineReopensUnderNewOptions pins that the snapshot holds no
// extraction options: a store written at emax 2 reopens at emax 3, and
// the extractors it publishes, at boot and after a batch, use the new
// config.
func TestEngineReopensUnderNewOptions(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	e := openEngine(t, cfg)
	e.Close()

	cfg2 := cfg
	cfg2.Opts.MaxEdges = 3
	e2 := openEngine(t, cfg2)
	_, ex, _, gen, _ := e2.State()
	if gen != 1 || ex.Options().MaxEdges != 3 {
		t.Fatalf("reopened at generation %d with emax %d, want generation 1 at emax 3", gen, ex.Options().MaxEdges)
	}
	res, err := e2.Apply(context.Background(), "b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Extractor.Options().MaxEdges; got != 3 {
		t.Fatalf("published extractor has emax %d, want 3", got)
	}
}

func TestEngineSnapshotRoundTripValidation(t *testing.T) {
	// A corrupted ingest snapshot is quarantined and the older
	// generation loads instead.
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.CompactEvery = 1
	e := openEngine(t, cfg)
	ctx := context.Background()
	if _, err := e.Apply(ctx, "b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}); err != nil {
		t.Fatal(err)
	}
	_, _, _, gen, _ := e.State()
	e.Close()

	path := cfg.Store.Path(ArtifactIngest, gen)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := openEngine(t, cfg)
	// Generation gen is quarantined; the WAL was reset at compaction, so
	// recovery falls back to generation 1 WITHOUT the batch — but the
	// batch was compacted, so this is the documented double-fault case:
	// losing the newest snapshot after its WAL reset loses what was
	// folded into it. The engine must still come up clean on gen 1.
	g, _, _, gen2, _ := e2.State()
	if gen2 != 1 {
		t.Fatalf("recovered generation %d, want fallback to 1", gen2)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("fallback graph %s", g)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged snapshot not quarantined: %v", err)
	}
}

// TestReplayPublishesIdenticalState pins the SetPublish replay
// contract: a replayed ack hands the hook the engine's CURRENT state
// pointers — the identical Extractor the last genuine publish carried —
// so subscribers can recognise the no-op by pointer identity and keep
// derived state (the serving layer's row cache) intact.
func TestReplayPublishesIdenticalState(t *testing.T) {
	e := openEngine(t, testConfig(t, t.TempDir()))
	var published []Result
	e.SetPublish(func(res Result) { published = append(published, res) })

	muts := []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 2}}
	first, err := e.Apply(context.Background(), "dup", muts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Apply(context.Background(), "dup", muts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed || !second.Replayed || second.Seq != first.Seq {
		t.Fatalf("acks = %+v / %+v, want second replayed with the first's seq", first, second)
	}
	if len(published) != 2 {
		t.Fatalf("published %d results, want 2 (replays publish too)", len(published))
	}
	if published[1].Extractor != published[0].Extractor {
		t.Fatal("replay published rebuilt state pointers; subscribers cannot detect the no-op")
	}
	if !published[1].Replayed {
		t.Error("replayed publish not flagged Replayed")
	}
}
