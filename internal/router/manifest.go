// Package router is the sharded, replicated serving tier in front of a
// fleet of hsgfd shard workers. The graph is partitioned by root with a
// halo of distance-<=k neighbours per shard (internal/graph
// PartitionByRoot), so census extraction never crosses a shard
// boundary; the router owns everything distribution adds on top:
// consistent-hash root->shard routing, scatter/gather for mixed-root
// batches, per-replica health probing, per-shard circuit breakers,
// bounded retries with full-jitter backoff that honour server
// Retry-After hints, hedged requests against replicas after a
// p95-derived delay, partial-result degradation (a dead shard flags its
// rows shard-unavailable instead of failing the batch), and fleet-wide
// zero-downtime reload that verifies every shard before flipping any.
package router

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// manifestVersion guards the manifest encoding; readers refuse files
// from the future. Version 2 writes each shard's ID table as base64
// instead of a JSON array of numbers; version-1 files still load (see
// NodeIDs).
const manifestVersion = 2

// Manifest is the partition's routing metadata: everything the router
// must know about how the graph was cut that it cannot recompute
// without loading the full graph. It is written by the partitioner next
// to the shard stores and loaded by the router at boot.
type Manifest struct {
	Version   int `json:"version"`
	NumShards int `json:"num_shards"`
	// HaloDepth records the neighbourhood radius the shards were cut
	// with; serving emax must not exceed it (emax-1 under dmax), which
	// the operator can audit from /v1/meta.
	HaloDepth int `json:"halo_depth"`
	// NumNodes is the full graph's node count; the router validates
	// request roots against it.
	NumNodes int             `json:"num_nodes"`
	Shards   []ShardManifest `json:"shards"`
}

// ShardManifest describes one shard's universe.
type ShardManifest struct {
	Shard int `json:"shard"`
	// OwnedRoots counts the globally-owned roots (for ops; ownership
	// itself is recomputed via graph.RootShard).
	OwnedRoots int `json:"owned_roots"`
	// LocalToGlobal maps the shard graph's dense local node IDs to
	// global IDs. Its inverse translates request roots into shard
	// requests.
	LocalToGlobal NodeIDs `json:"local_to_global"`
}

// NodeIDs is a manifest ID table. It is stored as one base64 string of
// little-endian int32 node IDs, the width every stored graph uses, so a
// load is a string scan and a copy rather than a parse of one JSON
// number per node. A version-1 manifest holds a JSON array of numbers
// here instead; UnmarshalJSON reads both.
type NodeIDs []graph.NodeID

// MarshalJSON writes the table as a quoted base64 string.
func (ids NodeIDs) MarshalJSON() ([]byte, error) {
	raw := make([]byte, 4*len(ids))
	for i, v := range ids {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(raw))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, raw)
	return append(out, '"'), nil
}

// UnmarshalJSON reads a base64 string (version 2) or a JSON array of
// numbers (version 1). An array entry outside the int32 range cannot be
// a node ID and is refused here; every other range check is Validate's.
func (ids *NodeIDs) UnmarshalJSON(data []byte) error {
	switch {
	case string(data) == "null":
		return nil
	case len(data) > 0 && data[0] == '[':
		var wide []int64
		if err := json.Unmarshal(data, &wide); err != nil {
			return err
		}
		out := make(NodeIDs, len(wide))
		for i, v := range wide {
			if v < math.MinInt32 || v > math.MaxInt32 {
				return fmt.Errorf("router: local_to_global entry %d is %d, outside the int32 node-ID range", i, v)
			}
			out[i] = graph.NodeID(v)
		}
		*ids = out
		return nil
	case len(data) < 2 || data[0] != '"':
		return fmt.Errorf("router: local_to_global must be a base64 string or an array of node IDs")
	}
	// The JSON decoder has already checked the token; base64 needs no
	// escapes, so only a string written by something other than
	// MarshalJSON takes the unquoting path.
	text := data[1 : len(data)-1]
	if bytes.IndexByte(text, '\\') >= 0 {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		text = []byte(s)
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(raw, text)
	if err != nil {
		return fmt.Errorf("router: local_to_global: %w", err)
	}
	if n%4 != 0 {
		return fmt.Errorf("router: local_to_global holds %d bytes, not a whole number of int32 IDs", n)
	}
	out := make(NodeIDs, n/4)
	for i := range out {
		out[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	*ids = out
	return nil
}

// BuildManifest assembles the routing manifest for a set of shard plans
// cut from a graph with numNodes nodes.
func BuildManifest(numNodes, haloDepth int, plans []*graph.ShardPlan) *Manifest {
	m := &Manifest{
		Version:   manifestVersion,
		NumShards: len(plans),
		HaloDepth: haloDepth,
		NumNodes:  numNodes,
		Shards:    make([]ShardManifest, len(plans)),
	}
	for i, p := range plans {
		m.Shards[i] = ShardManifest{
			Shard:         p.Shard,
			OwnedRoots:    len(p.OwnedRoots),
			LocalToGlobal: append(NodeIDs(nil), p.LocalToGlobal...),
		}
	}
	return m
}

// Validate checks the manifest's internal consistency: version,
// shard count/order, in-range mappings, and that every global node is
// owned by the shard RootShard assigns it to. NumNodes is bounded by
// the IDs the file maps before anything is sized by it, so a hostile
// count cannot make Validate allocate more than the file holds.
func (m *Manifest) Validate() error {
	if m.Version > manifestVersion {
		return fmt.Errorf("router: manifest version %d, reader supports <= %d", m.Version, manifestVersion)
	}
	if m.NumShards < 1 || len(m.Shards) != m.NumShards {
		return fmt.Errorf("router: manifest has %d shard entries for num_shards %d", len(m.Shards), m.NumShards)
	}
	if m.NumNodes < 0 {
		return fmt.Errorf("router: negative num_nodes %d", m.NumNodes)
	}
	if m.NumNodes > math.MaxInt32 {
		return fmt.Errorf("router: num_nodes %d exceeds the int32 node-ID range", m.NumNodes)
	}
	mapped := 0
	for _, sh := range m.Shards {
		mapped += len(sh.LocalToGlobal)
	}
	if m.NumNodes > mapped {
		// Every node must appear in its owner's table, so a count above
		// the mapped total already fails the ownership check below.
		return fmt.Errorf("router: num_nodes %d exceeds the %d IDs the shards map", m.NumNodes, mapped)
	}
	// owner[g] starts as g's owning shard, hashed once per node, and
	// becomes -1 when that shard maps g. lastShard[g] is 1 + the index
	// of the last shard that mapped g, so a repeat inside one shard
	// shows without clearing between shards.
	owner := make([]int32, m.NumNodes)
	for v := range owner {
		owner[v] = int32(graph.RootShard(graph.NodeID(v), m.NumShards))
	}
	lastShard := make([]int32, m.NumNodes)
	for i, sh := range m.Shards {
		if sh.Shard != i {
			return fmt.Errorf("router: shard entry %d has index %d; entries must be ordered", i, sh.Shard)
		}
		stamp := int32(i + 1)
		for local, global := range sh.LocalToGlobal {
			if global < 0 || int(global) >= len(lastShard) {
				return fmt.Errorf("router: shard %d local %d maps to out-of-range global %d", i, local, global)
			}
			if lastShard[global] == stamp {
				return fmt.Errorf("router: shard %d maps global %d twice", i, global)
			}
			lastShard[global] = stamp
			// An unconditional store of a selected value, which compiles
			// to a conditional move: whether g's owner is this shard is
			// a coin flip, and a branch on it mispredicted often enough
			// to double Validate's time.
			o := owner[global]
			if o == int32(i) {
				o = -1
			}
			owner[global] = o
		}
	}
	for v, o := range owner {
		if o >= 0 {
			return fmt.Errorf("router: global node %d absent from its owning shard %d", v, o)
		}
	}
	return nil
}

// WriteManifest atomically persists m as JSON at path (temp + fsync +
// rename, like every other artifact), in the current version's encoding
// whatever version m was read at.
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

// LoadManifest reads and validates a manifest written by WriteManifest
// at this or an earlier version.
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
