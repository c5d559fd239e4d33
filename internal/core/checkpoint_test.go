package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

func checkpointPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "census.ckpt")
}

func TestCheckpointCompleteRunRoundTrips(t *testing.T) {
	g := denseGraph(t, 50)
	roots := allRoots(g)[:20]
	path := checkpointPath(t)

	ex, _ := NewExtractor(g, Options{MaxEdges: 3})
	cs, err := ex.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path, Interval: 4})
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := NewExtractor(g, Options{MaxEdges: 3})
	want := clean.CensusAll(roots, 2)
	for i := range roots {
		if !reflect.DeepEqual(cs[i].Counts, want[i].Counts) {
			t.Fatalf("root %d census diverged under checkpointing", i)
		}
	}

	total, done, degraded, err := ReadCensusCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(roots) || done != len(roots) || degraded != 0 {
		t.Fatalf("checkpoint info = %d/%d done, %d degraded; want %d/%d, 0", done, total, degraded, len(roots), len(roots))
	}
}

func TestCheckpointResumeSkipsCompletedRoots(t *testing.T) {
	g := denseGraph(t, 60)
	roots := allRoots(g)
	path := checkpointPath(t)
	opts := Options{MaxEdges: 3}

	// Run 1 is "killed" (cancelled) once half the roots have started;
	// snapshots every 2 roots plus the final snapshot keep what finished.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	ex1, _ := NewExtractor(g, opts)
	ex1.hooks = &faultHooks{onRootStart: func(graph.NodeID) {
		if started.Add(1) == int64(len(roots)/2) {
			cancel()
		}
	}}
	_, err := ex1.CensusAllCheckpoint(ctx, roots, 2, CheckpointConfig{Path: path, Interval: 2})
	if err != context.Canceled {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}
	_, doneAfterKill, _, err := ReadCensusCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if doneAfterKill == 0 || doneAfterKill >= len(roots) {
		t.Fatalf("checkpoint after kill covers %d/%d roots, want a strict partial", doneAfterKill, len(roots))
	}

	// Run 2 resumes: completed roots must not be re-extracted.
	var reExtracted atomic.Int64
	ex2, _ := NewExtractor(g, opts)
	ex2.hooks = &faultHooks{onRootStart: func(graph.NodeID) { reExtracted.Add(1) }}
	cs, err := ex2.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path, Interval: 2, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled-in-flight rows (at most the worker count) are
	// legitimately re-run on resume; everything the snapshot marked
	// complete must be skipped.
	if got := int(reExtracted.Load()); got > len(roots)-doneAfterKill+2 {
		t.Fatalf("resume re-extracted %d roots, snapshot already had %d/%d complete", got, doneAfterKill, len(roots))
	}

	clean, _ := NewExtractor(g, opts)
	want := clean.CensusAll(roots, 2)
	for i := range roots {
		if cs[i] == nil {
			t.Fatalf("root %d nil after resumed run", i)
		}
		if !reflect.DeepEqual(cs[i].Counts, want[i].Counts) {
			t.Fatalf("root %d census diverged across kill/resume", i)
		}
	}

	// The resumed extractor can decode its entire vocabulary, including
	// keys that only occur in rows restored from the snapshot.
	fs, err := NewFeatureSet(ex2, cs, VocabularyOf(cs))
	if err != nil {
		t.Fatalf("feature set after resume: %v", err)
	}
	if len(fs.Rows) != len(roots) {
		t.Fatalf("feature set has %d rows, want %d", len(fs.Rows), len(roots))
	}
}

func TestCheckpointKeepsDeterministicDegradation(t *testing.T) {
	// Budget-truncated rows are deterministic; a resume must keep them
	// rather than burn the budget again.
	g := denseGraph(t, 50)
	roots := allRoots(g)[:10]
	path := checkpointPath(t)
	opts := Options{MaxEdges: 4, MaxSubgraphsPerRoot: 200}

	ex1, _ := NewExtractor(g, opts)
	cs1, err := ex1.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var truncated int
	for _, c := range cs1 {
		if c.Flags&FlagBudgetExceeded != 0 {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("budget too large: no truncated rows to test with")
	}

	var reExtracted atomic.Int64
	ex2, _ := NewExtractor(g, opts)
	ex2.hooks = &faultHooks{onRootStart: func(graph.NodeID) { reExtracted.Add(1) }}
	cs2, err := ex2.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if reExtracted.Load() != 0 {
		t.Fatalf("resume of a complete checkpoint re-extracted %d roots", reExtracted.Load())
	}
	for i := range roots {
		if cs2[i].Flags != cs1[i].Flags {
			t.Fatalf("root %d flags %v after resume, want %v", i, cs2[i].Flags, cs1[i].Flags)
		}
		if !reflect.DeepEqual(cs2[i].Counts, cs1[i].Counts) {
			t.Fatalf("root %d counts diverged across resume", i)
		}
	}
}

func TestCheckpointRejectsMismatchedRun(t *testing.T) {
	g := denseGraph(t, 40)
	roots := allRoots(g)[:8]
	path := checkpointPath(t)

	ex, _ := NewExtractor(g, Options{MaxEdges: 3})
	if _, err := ex.CensusAllCheckpoint(context.Background(), roots, 2, CheckpointConfig{Path: path}); err != nil {
		t.Fatal(err)
	}

	// The same checkpoint as bare JSON, the layout before envelopes: it
	// is refused as corrupt, never read as a missing file.
	snap, err := readCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	bare := path + ".json"
	if err := os.WriteFile(bare, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		opts  Options
		roots []graph.NodeID
		path  string
		want  string
	}{
		{"different emax", Options{MaxEdges: 4}, roots, path, "emax"},
		{"different dmax", Options{MaxEdges: 3, MaxDegree: 5}, roots, path, "dmax"},
		{"different masking", Options{MaxEdges: 3, MaskRootLabel: true}, roots, path, "mask_root_label"},
		{"different root count", Options{MaxEdges: 3}, roots[:4], path, "roots"},
		{"diverged root list", Options{MaxEdges: 3}, append([]graph.NodeID{9}, roots[1:]...), path, "diverges"},
		{"bare JSON", Options{MaxEdges: 3}, roots, bare, store.ErrCorrupt.Error()},
	}
	for _, tc := range cases {
		ex2, err := NewExtractor(g, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ex2.CensusAllCheckpoint(context.Background(), tc.roots, 2, CheckpointConfig{Path: tc.path, Resume: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// A different graph is rejected too.
	g2 := denseGraph(t, 41)
	ex3, _ := NewExtractor(g2, Options{MaxEdges: 3})
	if _, err := ex3.CensusAllCheckpoint(context.Background(), allRoots(g2)[:8], 2, CheckpointConfig{Path: path, Resume: true}); err == nil {
		t.Error("snapshot from a different graph accepted")
	}
}

func TestCheckpointMissingFileStartsFresh(t *testing.T) {
	g := denseGraph(t, 30)
	roots := allRoots(g)[:5]
	path := checkpointPath(t)
	ex, _ := NewExtractor(g, Options{MaxEdges: 2})
	cs, err := ex.CensusAllCheckpoint(context.Background(), roots, 1, CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if c == nil || c.Truncated {
			t.Fatalf("root %d incomplete on fresh resume run", i)
		}
	}
}

func TestCheckpointEmptyPathRejected(t *testing.T) {
	g := denseGraph(t, 10)
	ex, _ := NewExtractor(g, Options{MaxEdges: 2})
	if _, err := ex.CensusAllCheckpoint(context.Background(), allRoots(g), 1, CheckpointConfig{}); err == nil {
		t.Fatal("empty checkpoint path accepted")
	}
}
