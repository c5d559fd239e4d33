// Package router is the sharded, replicated serving tier in front of a
// fleet of hsgfd shard workers. Every shard serves the whole graph under
// global node IDs and answers for the roots it owns (internal/graph
// PartitionByRoot), so census extraction never crosses a shard boundary
// and no ID is ever translated; the router owns everything distribution
// adds on top: consistent-hash root->shard routing, scatter/gather for
// mixed-root batches, per-replica health probing, per-shard circuit
// breakers, bounded retries with full-jitter backoff that honour server
// Retry-After hints, hedged requests against replicas after a
// p95-derived delay, partial-result degradation (a dead shard flags its
// rows shard-unavailable instead of failing the batch), and fleet-wide
// zero-downtime reload that verifies every shard before flipping any.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// manifestVersion guards the manifest encoding. Version 3 records only
// the shard and node counts, because every shard serves the whole graph.
// Versions 1 and 2 described halo-cut shards, each a renumbered
// sub-graph with its own ID table; this router cannot address those
// shards, so their manifests are refused with ErrOldManifest.
const manifestVersion = 3

// maxManifestShards bounds num_shards, which the router sizes per-shard
// state by.
const maxManifestShards = 1 << 16

// ErrOldManifest marks a version-1 or version-2 manifest: its shard
// stores hold halo-cut sub-graphs under shard-local IDs, which a router
// of this version would mis-address. The fix is to re-partition.
var ErrOldManifest = errors.New("router: manifest describes halo-cut shards (version 1 or 2), which this router cannot serve; " +
	"re-partition the graph with `hsgf -partition N -shards-out DIR`, which writes one whole-graph store and a version-3 manifest, " +
	"and boot every replica of every shard on that store")

// Manifest is the partition's routing metadata, written by the
// partitioner next to the shard store and loaded by the router at boot.
type Manifest struct {
	Version   int `json:"version"`
	NumShards int `json:"num_shards"`
	// NumNodes is the graph's node count; the router validates request
	// roots against it.
	NumNodes int `json:"num_nodes"`
}

// BuildManifest assembles the routing manifest for a set of shard plans
// cut from a graph with numNodes nodes. haloDepth is ignored: shards
// serve the whole graph.
func BuildManifest(numNodes, haloDepth int, plans []*graph.ShardPlan) *Manifest {
	return &Manifest{Version: manifestVersion, NumShards: len(plans), NumNodes: numNodes}
}

// Validate checks the manifest's version and counts.
func (m *Manifest) Validate() error {
	switch {
	case m.Version == 1 || m.Version == 2:
		return fmt.Errorf("%w (version %d)", ErrOldManifest, m.Version)
	case m.Version != manifestVersion:
		return fmt.Errorf("router: manifest version %d, reader supports %d", m.Version, manifestVersion)
	case m.NumShards < 1 || m.NumShards > maxManifestShards:
		return fmt.Errorf("router: num_shards %d outside [1, %d]", m.NumShards, maxManifestShards)
	case m.NumNodes < 0:
		return fmt.Errorf("router: negative num_nodes %d", m.NumNodes)
	case m.NumNodes > math.MaxInt32:
		return fmt.Errorf("router: num_nodes %d exceeds the int32 node-ID range", m.NumNodes)
	}
	return nil
}

// WriteManifest atomically persists m as JSON at path (temp + fsync +
// rename, like every other artifact), stamped with the current version.
func WriteManifest(path string, m *Manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	return store.AtomicWriteBytes(path, data)
}

// encodeManifest is WriteManifest's file body.
func encodeManifest(m *Manifest) ([]byte, error) {
	cur := *m
	cur.Version = manifestVersion
	data, err := json.MarshalIndent(&cur, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadManifest reads and validates a manifest written by WriteManifest.
// A manifest of version 1 or 2 fails with ErrOldManifest.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes and validates a manifest file's bytes.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("router: undecodable manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
