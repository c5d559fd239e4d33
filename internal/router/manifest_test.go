package router

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hsgf/internal/graph"
)

func testManifest(t *testing.T) *Manifest {
	t.Helper()
	g := fleetTestGraph(t, 150, 29)
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	return BuildManifest(g.NumNodes(), 0, plans)
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh manifest invalid: %v", err)
	}
	if *m != (Manifest{Version: 3, NumShards: 3, NumNodes: 150}) {
		t.Fatalf("manifest %+v, want version 3 over 3 shards and 150 nodes", *m)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("manifest did not round-trip")
	}
}

func TestManifestValidateRejectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *Manifest)
		want   string
	}{
		{"future version", func(m *Manifest) { m.Version = manifestVersion + 1 }, "version 4"},
		{"no version", func(m *Manifest) { m.Version = 0 }, "version 0"},
		{"no shards", func(m *Manifest) { m.NumShards = 0 }, "num_shards"},
		{"too many shards", func(m *Manifest) { m.NumShards = maxManifestShards + 1 }, "num_shards"},
	}
	for _, tc := range cases {
		m := testManifest(t)
		tc.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestManifestValidateBoundsNumNodes: a node count that is negative or
// past the int32 ID range is refused.
func TestManifestValidateBoundsNumNodes(t *testing.T) {
	for _, tc := range []struct {
		numNodes int
		want     string
	}{
		{-1, "negative num_nodes"},
		{math.MaxInt32 + 1, "int32 node-ID range"},
	} {
		m := testManifest(t)
		m.NumNodes = tc.numNodes
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("num_nodes %d: Validate() = %v, want error containing %q", tc.numNodes, err, tc.want)
		}
	}
}

// TestOldManifestsRefused: testdata/manifest-v1.json (ID tables as JSON
// arrays) and testdata/manifest-v2.json (base64 tables) were written by
// the version-1 and version-2 WriteManifest for halo-cut shards. Their
// shard stores are renumbered sub-graphs, so LoadManifest and New must
// refuse them with ErrOldManifest, whose message names the re-partition
// step, never load them.
func TestOldManifestsRefused(t *testing.T) {
	for _, name := range []string{"manifest-v1.json", "manifest-v2.json"} {
		_, err := LoadManifest(filepath.Join("testdata", name))
		if !errors.Is(err, ErrOldManifest) {
			t.Fatalf("%s: LoadManifest = %v, want ErrOldManifest", name, err)
		}
		if !strings.Contains(err.Error(), "hsgf -partition") {
			t.Fatalf("%s: %v does not name the re-partition step", name, err)
		}
	}
	_, err := New(Config{Manifest: &Manifest{Version: 2, NumShards: 1, NumNodes: 10}, Shards: [][]string{{"http://127.0.0.1:1"}}})
	if !errors.Is(err, ErrOldManifest) {
		t.Fatalf("New over a version-2 manifest = %v, want ErrOldManifest", err)
	}
}

// FuzzLoadManifest runs LoadManifest's decode and Validate path on raw
// bytes, seeded with a v3 manifest, the v1 fixture and a v2 file. It
// must never panic, the old versions must fail with ErrOldManifest, and
// every manifest it accepts must survive WriteManifest's encoding
// unchanged.
func FuzzLoadManifest(f *testing.F) {
	v3, err := encodeManifest(identityManifest(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	for _, name := range []string{"manifest-v1.json", "manifest-v2.json"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		var raw Manifest
		if json.Unmarshal(data, &raw) == nil && (raw.Version == 1 || raw.Version == 2) && !errors.Is(err, ErrOldManifest) {
			t.Fatalf("version-%d manifest: LoadManifest = %v, want ErrOldManifest", raw.Version, err)
		}
		if err != nil {
			return
		}
		enc, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		back, err := parseManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v", err)
		}
		if *back != *m {
			t.Fatalf("manifest changed in the round trip: %+v -> %+v", m, back)
		}
	})
}
