// Package ingest implements crash-safe streaming mutation of a served
// graph: a write-ahead log makes each acked batch durable, a compactor
// periodically folds the log into a snapshot generation, and every
// applied batch reports its dirty ball — the distance-≤emax roots whose
// census it can have changed (see internal/core's DirtySet). The engine
// keeps the graph only; feature rows are computed by whoever reads the
// published graph.
package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// ArtifactIngest is the store kind of the compacted ingest state: one
// snapshot holding the graph and the ingest watermark (last folded
// sequence plus the applied-batch index), written atomically so
// recovery always sees a consistent pair.
const ArtifactIngest = "ingest"

// ingestSchema is the snapshot layout this package writes: [meta,
// ingestmeta, graph] with the graph in the graphbin codec. Schema 1,
// still read, was [meta, ingestmeta, graph, featureset] with a TSV
// graph and the census rows as JSON.
const ingestSchema = 2

// ingestMeta is the watermark section of an ingest snapshot.
type ingestMeta struct {
	Schema  int    `json:"schema"`
	LastSeq uint64 `json:"last_seq"`
	// Batches is the applied-batch idempotency index at snapshot time:
	// batch ID -> sequence it was applied at. Persisting it means a
	// batch replayed AFTER its records were compacted out of the WAL is
	// still recognised and acked instead of re-applied. Bounded by
	// Config.MaxIndexEntries (oldest sequences evicted first), so only
	// replays older than the whole retained window can slip past — and
	// those arrive with a batch the WAL no longer knows either way.
	Batches map[string]uint64 `json:"batches"`
}

// ingestState is the decoded form of one ingest snapshot.
type ingestState struct {
	meta ingestMeta
	g    *graph.Graph
}

// snapshotSections frames the ingest state through core's artifact
// framing as [meta, ingestmeta, graph], the graph streamed into the
// file when the store writes it (unaligned: the loader decodes it to
// the heap). The graphbin codec has no edge-type section, so a typed
// graph is refused (graph.ErrEdgeTyped).
func snapshotSections(st *ingestState) ([]store.Section, error) {
	watermark, err := json.Marshal(st.meta)
	if err != nil {
		return nil, err
	}
	gsec, err := core.GraphSection("graph", st.g, 0)
	if err != nil {
		return nil, err
	}
	return core.ArtifactSections(ArtifactIngest, ingestSchema,
		store.Section{Name: "ingestmeta", Payload: watermark}, gsec)
}

// parseSnapshot decodes and structurally validates an ingest envelope
// of either schema; a schema-1 featureset section is skipped
// undecoded. The layout follows the meta section's schema, read first,
// so a generation from a newer writer fails with
// store.ErrUnsupportedVersion, which stops LoadLatestVerified; every
// other failure wraps store.ErrCorrupt, so the generation is
// quarantined and an older one tried.
func parseSnapshot(env *store.Envelope) (*ingestState, error) {
	schema, err := core.ArtifactSchema(env, ArtifactIngest, ingestSchema)
	if err != nil {
		return nil, fmt.Errorf("ingest snapshot: %w", err)
	}
	names := []string{"ingestmeta", "graph"}
	switch schema {
	case ingestSchema:
	case 1:
		names = append(names, "featureset")
	default:
		return nil, fmt.Errorf("%w: ingest snapshot schema %d", store.ErrCorrupt, schema)
	}
	payloads, err := core.ArtifactPayloads(env, ArtifactIngest, schema, names...)
	if err != nil {
		return nil, fmt.Errorf("ingest snapshot: %w", err)
	}
	st := &ingestState{}
	if err := json.Unmarshal(payloads[0], &st.meta); err != nil {
		return nil, fmt.Errorf("%w: undecodable ingest watermark: %v", store.ErrCorrupt, err)
	}
	if st.meta.Schema != schema {
		return nil, fmt.Errorf("%w: ingest watermark says schema %d in a schema-%d layout", store.ErrCorrupt, st.meta.Schema, schema)
	}
	if schema == 1 {
		st.g, err = graph.ReadTSV(bytes.NewReader(payloads[1]))
	} else {
		st.g, _, err = graph.DecodeBinary(payloads[1], false)
	}
	if err == nil {
		err = st.g.RequireUntyped("ingest graph")
	}
	if err != nil {
		return nil, fmt.Errorf("%w: ingest graph: %v", store.ErrCorrupt, err)
	}
	for id, seq := range st.meta.Batches {
		if id == "" || seq == 0 || seq > st.meta.LastSeq {
			return nil, fmt.Errorf("%w: ingest batch index entry %q -> %d outside watermark %d", store.ErrCorrupt, id, seq, st.meta.LastSeq)
		}
	}
	return st, nil
}

// loadSnapshot returns the newest ingest generation that passes full
// validation, quarantining failures; store.ErrNotFound when none
// exists.
func loadSnapshot(st *store.Store) (*ingestState, uint64, error) {
	var state *ingestState
	_, gen, err := st.LoadLatestVerified(ArtifactIngest, func(env *store.Envelope) error {
		parsed, err := parseSnapshot(env)
		if err != nil {
			return err
		}
		state = parsed
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return state, gen, nil
}
