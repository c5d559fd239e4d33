package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// Binary graph persistence: the boot-path format for graphs too large
// to re-parse from TSV. Snapshots are written under the "graphbin"
// kind in the same envelope framing as every other artifact, and the
// mapped loader aliases the CSR arrays straight out of a read-only
// memory mapping — load cost is envelope verification, not graph
// reconstruction, and resident cost is page-cache pages shared across
// processes.
//
// TSV ("graph") stays the exchange format. SaveGraphSnapshots writes
// both kinds in lockstep so either loader observes every rotation;
// LoadGraphSnapshotAuto serves whichever kind is newest.

// SaveGraphBinarySnapshot writes g into st as the next "graphbin"
// generation. The binary payload's array sections are aligned relative
// to the enclosing file (via store.PayloadOffset), so a later mapped
// load can alias them without copying.
func SaveGraphBinarySnapshot(st *store.Store, g *graph.Graph) (uint64, error) {
	// Frame with an empty payload first: the payload's file offset
	// depends only on the envelope header and the sections before it,
	// so it is known before the payload is encoded.
	sections, err := artifactSections(ArtifactGraphBin, nil)
	if err != nil {
		return 0, err
	}
	fileBase := store.PayloadOffset(sections, 1)
	payload, err := graph.EncodeBinary(g, fileBase)
	if err != nil {
		return 0, err
	}
	sections[1].Payload = payload
	return st.Write(ArtifactGraphBin, sections)
}

// LoadGraphSnapshotMapped loads the newest "graphbin" generation that
// passes envelope verification and binary decoding, quarantining
// failures like every other loader. When the platform allows, the
// returned graph's CSR arrays alias a read-only memory mapping that the
// graph pins for the remaining process lifetime (accessors return
// sub-slices of the mapped arrays, so no per-object lifetime is sound —
// see graph.PinBacking); callers treat the result exactly like any
// other *graph.Graph.
func LoadGraphSnapshotMapped(st *store.Store) (*graph.Graph, uint64, error) {
	var g *graph.Graph
	var aliased bool
	m, _, gen, err := st.LoadLatestMapped(ArtifactGraphBin, func(env *store.Envelope) error {
		payload, err := artifactPayload(env, ArtifactGraphBin)
		if err != nil {
			return err
		}
		decoded, wasAliased, err := graph.DecodeBinary(payload, true)
		if err != nil {
			return fmt.Errorf("%w: %v", store.ErrCorrupt, err)
		}
		g, aliased = decoded, wasAliased
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if aliased {
		// The graph's slices point into the mapping, and accessors hand
		// out sub-slices that do not keep the graph reachable — a
		// finalizer on the graph could munmap under a live Neighbors
		// result. Pin the mapping instead; it is released at process
		// exit.
		g.PinBacking(m)
	} else {
		// Decode copied everything (alignment or platform fallback);
		// the mapping is no longer referenced.
		m.Close()
	}
	return g, gen, nil
}

// SaveGraphSnapshots writes g as both a TSV "graph" and a binary
// "graphbin" generation. Writing both keeps the two kinds' generation
// clocks advancing together, so LoadGraphSnapshotAuto — and older
// tooling that only understands TSV — both observe the rotation. The
// returned generation is the binary one. Typed graphs are refused
// (graph.ErrEdgeTyped) by SaveGraphSnapshot, before either generation
// is written.
func SaveGraphSnapshots(st *store.Store, g *graph.Graph) (uint64, error) {
	if _, err := SaveGraphSnapshot(st, g); err != nil {
		return 0, err
	}
	return SaveGraphBinarySnapshot(st, g)
}

// LoadGraphSnapshotAuto serves the newest graph snapshot across both
// kinds: binary when its newest generation is at least as new as the
// TSV one (dual-written snapshots tie, and the cheap mapped load
// wins), TSV when it is strictly newer (a writer that only knows TSV
// rotated since the last dual write). If the preferred kind
// quarantines its way below the other kind's newest generation — a
// corrupted binary must not shadow an intact TSV of the same
// rotation — the other kind is tried and the newer loadable
// generation wins.
func LoadGraphSnapshotAuto(st *store.Store) (*graph.Graph, uint64, error) {
	binGens, err := st.Generations(ArtifactGraphBin)
	if err != nil {
		return nil, 0, err
	}
	tsvGens, err := st.Generations(ArtifactGraph)
	if err != nil {
		return nil, 0, err
	}
	newest := func(gens []uint64) uint64 {
		if len(gens) == 0 {
			return 0
		}
		return gens[len(gens)-1]
	}
	first, second := LoadGraphSnapshotMapped, LoadGraphSnapshot
	secondNewest := newest(tsvGens)
	if len(binGens) == 0 || newest(binGens) < newest(tsvGens) {
		first, second = LoadGraphSnapshot, LoadGraphSnapshotMapped
		secondNewest = newest(binGens)
	}
	g, gen, err := first(st)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		return nil, 0, err
	}
	if err == nil && gen >= secondNewest {
		return g, gen, nil
	}
	// The preferred kind had nothing loadable, or corruption
	// quarantine walked it below the other kind's newest generation.
	g2, gen2, err2 := second(st)
	if err2 == nil && (err != nil || gen2 > gen) {
		return g2, gen2, nil
	}
	if err == nil {
		return g, gen, nil
	}
	if err2 != nil && !errors.Is(err2, store.ErrNotFound) {
		return nil, 0, err2
	}
	return nil, 0, err
}

// ReadGraphFile reads a graph from path in whichever format the bytes
// declare: a store envelope holding a binary or TSV graph artifact, or
// a legacy bare TSV file. This is the import path for CLI `-in` flags,
// so operators can hand any graph artifact to any tool.
func ReadGraphFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !store.IsEnvelope(data) {
		return graph.ReadTSV(bytes.NewReader(data))
	}
	env, err := store.ParseEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if payload, err := artifactPayload(env, ArtifactGraphBin); err == nil {
		g, _, err := graph.DecodeBinary(payload, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g, nil
	}
	payload, err := artifactPayload(env, ArtifactGraph)
	if err != nil {
		return nil, fmt.Errorf("%s: not a graph artifact: %w", path, err)
	}
	return graph.ReadTSV(bytes.NewReader(payload))
}
