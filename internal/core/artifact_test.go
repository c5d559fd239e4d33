package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hsgf/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGraphSnapshotRoundTrip(t *testing.T) {
	st := testStore(t)
	g := denseGraph(t, 40)
	gen, err := SaveGraphSnapshots(st, g)
	if err != nil {
		t.Fatal(err)
	}
	got, gotGen, err := LoadGraphSnapshotAuto(st)
	if err != nil {
		t.Fatal(err)
	}
	if gotGen != gen {
		t.Fatalf("loaded generation %d, want %d", gotGen, gen)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("graph round-trip: %d/%d nodes, %d/%d edges",
			got.NumNodes(), g.NumNodes(), got.NumEdges(), g.NumEdges())
	}
}

// TestSnapshotUnknownTrailingSectionRejected proves a snapshot carrying
// a section this reader does not understand is refused with ErrCorrupt
// instead of silently misparsed — the forward-compat contract for
// same-version writers with extensions.
func TestSnapshotUnknownTrailingSectionRejected(t *testing.T) {
	sections, err := artifactSections(ArtifactCheckpoint, []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	sections = append(sections, store.Section{Name: "future-extension", Payload: []byte("v2 data")})
	env := &store.Envelope{Version: store.FormatVersion, Sections: sections}
	if _, err := artifactPayload(env, ArtifactCheckpoint); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("unknown trailing section: got %v, want ErrCorrupt", err)
	}
}

// TestSnapshotFutureSchemaRejected proves a payload schema from the
// future is refused with ErrUnsupportedVersion, not guessed at.
func TestSnapshotFutureSchemaRejected(t *testing.T) {
	meta, err := json.Marshal(artifactMeta{Artifact: ArtifactCheckpoint, Schema: artifactSchema + 1})
	if err != nil {
		t.Fatal(err)
	}
	env := &store.Envelope{Version: store.FormatVersion, Sections: []store.Section{
		{Name: "meta", Payload: meta},
		{Name: ArtifactCheckpoint, Payload: []byte("{}")},
	}}
	_, err = artifactPayload(env, ArtifactCheckpoint)
	if !errors.Is(err, store.ErrUnsupportedVersion) {
		t.Fatalf("future schema: got %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, store.ErrCorrupt) {
		t.Fatal("future schema misclassified as corruption")
	}
}

// TestSnapshotWrongArtifactRejected proves a renamed snapshot (graph
// bytes under a checkpoint name) cannot decode as the wrong artifact.
func TestSnapshotWrongArtifactRejected(t *testing.T) {
	sections, err := artifactSections(ArtifactGraphBin, []byte("HSGFBIN"))
	if err != nil {
		t.Fatal(err)
	}
	env := &store.Envelope{Version: store.FormatVersion, Sections: sections}
	if _, err := artifactPayload(env, ArtifactCheckpoint); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("wrong artifact: got %v, want ErrCorrupt", err)
	}
}

// TestGraphSnapshotQuarantinesInvalidPayload: a generation whose
// envelope verifies but whose graph payload does not decode is as
// unusable as a torn file — it must be quarantined and the previous
// generation served.
func TestGraphSnapshotQuarantinesInvalidPayload(t *testing.T) {
	st := testStore(t)
	g := denseGraph(t, 30)
	if _, err := SaveGraphSnapshots(st, g); err != nil {
		t.Fatal(err)
	}
	// A structurally intact envelope wrapping bytes that are no graph.
	sections, err := artifactSections(ArtifactGraphBin, []byte("HSGFBIN but not a graph"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(ArtifactGraphBin, sections); err != nil {
		t.Fatal(err)
	}

	got, gen, err := LoadGraphSnapshotAuto(st)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("served generation %d, want fallback to 1", gen)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatal("fallback graph diverged")
	}
	quarantined, err := filepath.Glob(filepath.Join(st.Dir(), "*.corrupt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("%d quarantined files, want 1", len(quarantined))
	}
}

// TestCheckpointFutureVersionRejected: a checkpoint from a future
// schema revision is refused with a typed ErrUnsupportedVersion on both
// the resume and the info paths.
func TestCheckpointFutureVersionRejected(t *testing.T) {
	g := denseGraph(t, 30)
	roots := allRoots(g)[:8]
	path := filepath.Join(t.TempDir(), "future.ckpt")
	ex, _ := NewExtractor(g, Options{MaxEdges: 3})
	if _, err := ex.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path}); err != nil {
		t.Fatal(err)
	}
	snap, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = checkpointVersion + 1
	if err := writeCheckpointFile(path, snap); err != nil {
		t.Fatal(err)
	}

	ex2, _ := NewExtractor(g, Options{MaxEdges: 3})
	_, err = ex2.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path, Resume: true})
	if !errors.Is(err, store.ErrUnsupportedVersion) {
		t.Fatalf("resume from future checkpoint: got %v, want ErrUnsupportedVersion", err)
	}
	if _, _, _, err := ReadCensusCheckpointInfo(path); !errors.Is(err, store.ErrUnsupportedVersion) {
		t.Fatalf("info from future checkpoint: got %v, want ErrUnsupportedVersion", err)
	}
}

// TestCheckpointCorruptEnvelopeTyped: damage to a checkpoint file
// surfaces as typed corruption, never a panic or a misparse.
func TestCheckpointCorruptEnvelopeTyped(t *testing.T) {
	g := denseGraph(t, 30)
	roots := allRoots(g)[:8]
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	ex, _ := NewExtractor(g, Options{MaxEdges: 3})
	if _, err := ex.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ex2, _ := NewExtractor(g, Options{MaxEdges: 3})
	_, err = ex2.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path, Resume: true})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("resume from corrupt checkpoint: got %v, want ErrCorrupt", err)
	}
}

// TestGraphSnapshotRotation: repeated graph writes rotate generations
// and the loader always serves the newest good one.
func TestGraphSnapshotRotation(t *testing.T) {
	st := testStore(t)
	sizes := []int{20, 30, 40}
	for _, n := range sizes {
		if _, err := SaveGraphSnapshots(st, denseGraph(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	g, gen, err := LoadGraphSnapshotAuto(st)
	if err != nil {
		t.Fatal(err)
	}
	if gen != uint64(len(sizes)) {
		t.Fatalf("generation %d, want %d", gen, len(sizes))
	}
	if g.NumNodes() != 40 {
		t.Fatalf("latest graph has %d nodes, want 40", g.NumNodes())
	}
}
