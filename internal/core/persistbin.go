package core

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// Graph persistence: the store keeps graphs in one kind, "graphbin",
// the binary CSR encoding in the same envelope framing as every other
// artifact. The loader aliases the CSR arrays straight out of a
// read-only memory mapping — load cost is envelope verification, not
// graph reconstruction, and resident cost is page-cache pages shared
// across processes. TSV stays the exchange format for files handed to
// ReadGraphFile; the store never holds it.

// SaveGraphSnapshots writes g into st as the next "graphbin"
// generation, encoding the CSR straight into the file (GraphSection).
// The binary payload's array sections are aligned relative to the
// enclosing file (via store.PayloadOffset), so a later mapped load can
// alias them without copying. Typed graphs are refused
// (graph.ErrEdgeTyped) before anything is written.
func SaveGraphSnapshots(st *store.Store, g *graph.Graph) (uint64, error) {
	// Frame with an empty payload first: the payload's file offset
	// depends only on the envelope header and the sections before it,
	// so it is known before the payload is encoded.
	sections, err := artifactSections(ArtifactGraphBin, nil)
	if err != nil {
		return 0, err
	}
	if sections[1], err = GraphSection(ArtifactGraphBin, g, store.PayloadOffset(sections, 1)); err != nil {
		return 0, err
	}
	return st.Write(ArtifactGraphBin, sections)
}

// GraphSection is g's binary payload as a store section named name,
// for a payload that starts fileBase bytes into its file (0 when
// nothing maps the file). Its size is known up front and the store's
// writer encodes the CSR straight into the file, so the payload is
// never held in memory.
func GraphSection(name string, g *graph.Graph, fileBase int) (store.Section, error) {
	size, err := graph.BinarySize(g, fileBase)
	if err != nil {
		return store.Section{}, err
	}
	return store.Section{Name: name, Size: size, Stream: func(w io.Writer) error {
		return graph.EncodeBinaryTo(w, g, fileBase)
	}}, nil
}

// LoadGraphSnapshotAuto loads the newest "graphbin" generation that
// passes envelope verification and binary decoding, quarantining
// failures and falling back to the next-older generation like every
// other loader. When the platform allows, the returned graph's CSR
// arrays alias a read-only memory mapping that the graph pins for the
// remaining process lifetime (accessors return sub-slices of the mapped
// arrays, so no per-object lifetime is sound — see graph.PinBacking);
// callers treat the result exactly like any other *graph.Graph.
func LoadGraphSnapshotAuto(st *store.Store) (*graph.Graph, uint64, error) {
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

// ReadGraphFile reads a graph from path in whichever format the bytes
// declare: a store graph snapshot (a "graphbin" envelope) or a TSV
// exchange file. This is the import path for CLI `-in` flags, so
// operators can hand a store's graph generation to any tool.
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
	payload, err := artifactPayload(env, ArtifactGraphBin)
	if err != nil {
		return nil, fmt.Errorf("%s: not a graph snapshot: %w", path, err)
	}
	g, _, err := graph.DecodeBinary(payload, false)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
