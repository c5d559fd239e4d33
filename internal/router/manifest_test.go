package router

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hsgf/internal/graph"
)

func testManifest(t *testing.T) *Manifest {
	t.Helper()
	g := fleetTestGraph(t, 150, 29)
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 3, HaloDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	return BuildManifest(g.NumNodes(), 2, plans)
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("fresh manifest invalid: %v", err)
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
		{"future version", func(m *Manifest) { m.Version = manifestVersion + 1 }, "version"},
		{"shard order", func(m *Manifest) { m.Shards[0].Shard = 2 }, "ordered"},
		{"out of range mapping", func(m *Manifest) { m.Shards[1].LocalToGlobal[0] = graph.NodeID(m.NumNodes) }, "out-of-range"},
		{"duplicate mapping", func(m *Manifest) {
			m.Shards[1].LocalToGlobal[1] = m.Shards[1].LocalToGlobal[0]
		}, "twice"},
		{"missing owner", func(m *Manifest) {
			// Drop shard 0's entire universe: its owned roots go missing.
			m.Shards[0].LocalToGlobal = nil
		}, "absent"},
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

// TestManifestV1FixtureLoads: testdata/manifest-v1.json was written by
// the version-1 WriteManifest (ID tables as JSON arrays) for
// testManifest's partition. Manifests sit beside deployed shard stores,
// so this reader must load it to the same tables BuildManifest builds.
func TestManifestV1FixtureLoads(t *testing.T) {
	got, err := LoadManifest(filepath.Join("testdata", "manifest-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("fixture reads as version %d, want 1", got.Version)
	}
	want := testManifest(t)
	want.Version = 1
	if !reflect.DeepEqual(got, want) {
		t.Fatal("v1 fixture does not match BuildManifest over the same partition")
	}
}

// TestManifestV2Encoding: WriteManifest stores each ID table as one
// base64 string of little-endian int32s and stamps the current version,
// also for a manifest read at version 1.
func TestManifestV2Encoding(t *testing.T) {
	m, err := LoadManifest(filepath.Join("testdata", "manifest-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Version int `json:"version"`
		Shards  []struct {
			LocalToGlobal string `json:"local_to_global"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("ID tables are not strings: %v", err)
	}
	if raw.Version != manifestVersion {
		t.Fatalf("written version %d, want %d", raw.Version, manifestVersion)
	}
	ids, err := base64.StdEncoding.DecodeString(raw.Shards[1].LocalToGlobal)
	if err != nil {
		t.Fatal(err)
	}
	l2g := m.Shards[1].LocalToGlobal
	if len(ids) != 4*len(l2g) || binary.LittleEndian.Uint32(ids[4:]) != uint32(l2g[1]) {
		t.Fatalf("shard 1 table: %d bytes for %d IDs", len(ids), len(l2g))
	}
	back, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Version = manifestVersion
	if !reflect.DeepEqual(back, m) {
		t.Fatal("v2 manifest did not round-trip")
	}
}

// TestManifestValidateBoundsNumNodes: a node count that is negative,
// past the int32 ID range, or larger than the IDs the shards map is
// refused before Validate allocates anything sized by it.
func TestManifestValidateBoundsNumNodes(t *testing.T) {
	mapped := 0
	for _, sh := range testManifest(t).Shards {
		mapped += len(sh.LocalToGlobal)
	}
	tooMany := fmt.Sprintf("exceeds the %d IDs", mapped)
	for _, tc := range []struct {
		numNodes int
		want     string
	}{
		{-1, "negative num_nodes"},
		{math.MaxInt32 + 1, "int32 node-ID range"},
		{math.MaxInt32, tooMany},
		{mapped + 1, tooMany},
	} {
		m := testManifest(t)
		m.NumNodes = tc.numNodes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.Validate()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("num_nodes %d: Validate() = %v, want error containing %q", tc.numNodes, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("num_nodes %d: Validate allocated %d bytes before refusing", tc.numNodes, grew)
		}
	}
}

// FuzzLoadManifest runs LoadManifest's decode and Validate path on raw
// bytes, seeded with the v1 fixture and a v2 manifest. It must never
// panic, and every manifest it accepts must survive WriteManifest's
// encoding unchanged but for the version stamp.
func FuzzLoadManifest(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "manifest-v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	v2, err := encodeManifest(identityManifest(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
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
		if back.Version != manifestVersion || back.NumShards != m.NumShards ||
			back.HaloDepth != m.HaloDepth || back.NumNodes != m.NumNodes {
			t.Fatalf("header changed in the round trip: %+v -> %+v", m, back)
		}
		for i := range m.Shards {
			a, b := m.Shards[i], back.Shards[i]
			if a.Shard != b.Shard || a.OwnedRoots != b.OwnedRoots || !slices.Equal(a.LocalToGlobal, b.LocalToGlobal) {
				t.Fatalf("shard %d changed in the round trip", i)
			}
		}
	})
}
