// Package ingest implements crash-safe streaming mutation of a served
// graph: a write-ahead log makes each acked batch durable, a compactor
// periodically folds the log into a snapshot generation, and a
// delta-aware maintainer recomputes only the census rows a batch could
// have changed (the distance-≤emax dirty ball; see internal/core's
// DirtySet).
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
// snapshot holding the graph, its feature set, and the ingest watermark
// (last folded sequence plus the applied-batch index), written
// atomically so recovery always sees a consistent triple.
const ArtifactIngest = "ingest"

const ingestSchema = 1

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
	fs   *core.FeatureSet
}

// snapshotSections frames the ingest state through core's artifact
// framing as [meta, ingestmeta, graph, featureset].
func snapshotSections(st *ingestState) ([]store.Section, error) {
	watermark, err := json.Marshal(st.meta)
	if err != nil {
		return nil, err
	}
	var gbuf bytes.Buffer
	if err := graph.WriteTSV(&gbuf, st.g); err != nil {
		return nil, err
	}
	var fbuf bytes.Buffer
	if err := st.fs.Write(&fbuf); err != nil {
		return nil, err
	}
	return core.ArtifactSections(ArtifactIngest, ingestSchema,
		store.Section{Name: "ingestmeta", Payload: watermark},
		store.Section{Name: "graph", Payload: gbuf.Bytes()},
		store.Section{Name: "featureset", Payload: fbuf.Bytes()})
}

// parseSnapshot decodes and structurally validates an ingest envelope.
// Every failure wraps store.ErrCorrupt (or ErrUnsupportedVersion) so
// LoadLatestVerified quarantines the generation and falls back to an
// older one.
func parseSnapshot(env *store.Envelope) (*ingestState, error) {
	payloads, err := core.ArtifactPayloads(env, ArtifactIngest, ingestSchema, "ingestmeta", "graph", "featureset")
	if err != nil {
		return nil, fmt.Errorf("ingest snapshot: %w", err)
	}
	st := &ingestState{}
	if err := json.Unmarshal(payloads[0], &st.meta); err != nil {
		return nil, fmt.Errorf("%w: undecodable ingest watermark: %v", store.ErrCorrupt, err)
	}
	if st.g, err = graph.ReadTSV(bytes.NewReader(payloads[1])); err != nil {
		return nil, fmt.Errorf("%w: ingest graph: %v", store.ErrCorrupt, err)
	}
	if st.fs, err = core.ReadFeatureSet(bytes.NewReader(payloads[2])); err != nil {
		return nil, fmt.Errorf("%w: ingest feature set: %v", store.ErrCorrupt, err)
	}
	// Cross-section invariants: the feature set must cover exactly the
	// graph's nodes, row i belonging to root i.
	if len(st.fs.Rows) != st.g.NumNodes() {
		return nil, fmt.Errorf("%w: ingest snapshot has %d feature rows for %d nodes", store.ErrCorrupt, len(st.fs.Rows), st.g.NumNodes())
	}
	for i, r := range st.fs.Roots {
		if r != int64(i) {
			return nil, fmt.Errorf("%w: ingest feature row %d claims root %d", store.ErrCorrupt, i, r)
		}
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
