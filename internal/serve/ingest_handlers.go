package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"hsgf/internal/graph"
	"hsgf/internal/ingest"
)

// SetIngestor wires a streaming-ingest engine into the server: POST
// /v1/ingest goes live, and every applied batch's published state is
// RCU-swapped into the serving snapshot. The publish hook runs while
// the engine's writer lock is held, so snapshot swaps arrive in strict
// sequence order — a slow older batch can never overwrite a newer one.
// source labels the snapshots for /v1/meta (e.g. "ingest:/var/lib/hsgf").
// Call before the server starts handling requests.
func (s *Server) SetIngestor(eng *ingest.Engine, source string) {
	s.ingest = eng
	// Ingest has its own single-writer admission gate so a write burst
	// and a read burst shed independently: MaxQueue writers may wait
	// (the engine serialises them anyway), the rest get 429.
	s.ingestAdm = newAdmission(1, s.cfg.MaxQueue)
	eng.SetPublish(func(res ingest.Result) {
		// A replayed ack republishes state the server is already serving
		// (the engine hands out the identical Extractor pointer, see
		// ingest.Engine.SetPublish); skipping the swap keeps the serving
		// epoch — and with it every cached feature row — intact, so a
		// duplicate-replay storm cannot flush the cache. A replay right
		// after recovery, when the server has not yet seen the engine's
		// state, still publishes.
		if cur := s.snap.Load(); res.Replayed && cur.Extractor == res.Extractor {
			return
		}
		// publish advances the cache epoch: the rows cached against the
		// pre-mutation snapshot die with it, so an acked batch can never
		// be shadowed by a stale cached row.
		s.publish(&Snapshot{
			Extractor:   res.Extractor,
			Fingerprint: fingerprint(res.Extractor),
			Generation:  res.Generation,
			Source:      source,
		})
	})
}

// Ingesting reports whether a streaming-ingest engine is wired in.
func (s *Server) Ingesting() bool { return s.ingest != nil }

// SetFleetFollower puts /v1/ingest in follower mode: only
// router-sequenced fleet batches (fleet_seq set) are accepted, and
// direct client writes get 403 fleet_only. A shard daemon behind
// hsgf-router must run in this mode — a write that bypassed the
// sequencer would advance the shard without a fleet sequence and
// silently diverge it from the rest of the fleet. Call before the
// server starts handling requests.
func (s *Server) SetFleetFollower(on bool) { s.fleetFollower = on }

// FleetMaxRequestBody bounds the /v1/ingest body of a fleet-follower
// daemon. The router re-encodes each client batch into the body it
// sends every follower, and that body can outgrow the client's (the
// router caps client bodies at 8 MiB, and encoding/json escapes some
// characters of a name six-fold), so followers take the 8 MiB bound
// rather than the 1 MiB direct-client one. The router refuses a batch
// whose follower body would pass this cap BEFORE assigning it a fleet
// sequence, so a sequenced batch is never rejected here for size; if it
// were, the rejection would latch the router fleet-failed and re-latch
// it on every boot replay.
const FleetMaxRequestBody = 8 << 20

// IngestMutation is the wire form of one mutation in POST /v1/ingest.
type IngestMutation struct {
	// Op is one of add_node, add_edge, remove_edge, relabel.
	Op string `json:"op"`
	// U, V are node IDs (edge endpoints; U alone for relabel).
	U int64 `json:"u,omitempty"`
	V int64 `json:"v,omitempty"`
	// Label is the label name for add_node and relabel.
	Label string `json:"label,omitempty"`
	// Name is the optional node name for add_node.
	Name string `json:"name,omitempty"`
}

// DecodeIngestMutations converts wire mutations to graph mutations: the
// edge check of every /v1/ingest handler, the daemon's and the router's.
// It parses each op and refuses node IDs outside [0, MaxInt32]:
// graph.NodeID is int32, and an out-of-range int64 would wrap into a
// valid-looking node ID and mutate the wrong node.
func DecodeIngestMutations(wire []IngestMutation) ([]graph.Mutation, error) {
	muts := make([]graph.Mutation, len(wire))
	for i, m := range wire {
		op, err := graph.ParseMutationOp(m.Op)
		if err != nil {
			return nil, fmt.Errorf("mutation %d: %w", i, err)
		}
		if m.U < 0 || m.U > math.MaxInt32 || m.V < 0 || m.V > math.MaxInt32 {
			return nil, fmt.Errorf("mutation %d: node ids must be in [0, %d]", i, math.MaxInt32)
		}
		muts[i] = graph.Mutation{Op: op, U: graph.NodeID(m.U), V: graph.NodeID(m.V), Label: m.Label, Name: m.Name}
	}
	return muts, nil
}

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	// BatchID is the client's idempotency key: a batch re-sent with the
	// same ID (after a lost ack, a retry, a failover) is acknowledged
	// with its original sequence number, never applied twice.
	BatchID   string           `json:"batch_id"`
	Mutations []IngestMutation `json:"mutations"`

	// FleetSeq marks a router-sequenced fleet batch: the monotone fleet
	// sequence the router's sequencer WAL assigned this batch. It must
	// match the sequence encoded in BatchID (an ingest.FleetBatchID).
	// Zero means an ordinary client batch.
	FleetSeq uint64 `json:"fleet_seq,omitempty"`
	// PrevFleetSeq is FleetSeq-1: every shard applies every fleet batch.
	// The shard applies a fleet batch only when PrevFleetSeq equals its
	// own watermark — anything else is a gap: some earlier batch has not
	// arrived here yet, and a batch applied out of order would refer to
	// nodes and edges that are not there yet, so the shard refuses with
	// 409 sequence_gap and reports its watermark for the router to replay
	// from.
	PrevFleetSeq uint64 `json:"prev_fleet_seq,omitempty"`
	// FleetNodes is the node count of the fleet graph this batch applies
	// to; required on fleet batches. A shard whose graph holds another
	// count at that watermark does not serve the fleet's graph (a store
	// cut into a halo shard by an older partitioner, whose IDs are not
	// the fleet's) and refuses the batch with 400 graph_mismatch rather
	// than apply it to the wrong nodes.
	FleetNodes *int64 `json:"fleet_nodes,omitempty"`
}

// IngestResponse is the body of a successful POST /v1/ingest. The
// response is sent only after the batch is durable (WAL fsync) and the
// mutated graph is serving.
type IngestResponse struct {
	Seq         uint64 `json:"seq"`
	Replayed    bool   `json:"replayed,omitempty"`
	DirtyRoots  int    `json:"dirty_roots"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	Generation  uint64 `json:"generation,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// FleetWatermark is the shard's highest applied fleet sequence,
	// present on fleet-sequenced acks so the router can audit ordering.
	FleetWatermark uint64 `json:"fleet_watermark,omitempty"`
}

// IngestStatus is the freshness watermark block surfaced in
// /debug/stats, /readyz, and /v1/meta when ingest is enabled.
type IngestStatus struct {
	Enabled bool `json:"enabled"`
	// Failed reports a post-durability apply failure: the engine refuses
	// further batches until the daemon restarts and replays the WAL.
	Failed bool `json:"failed,omitempty"`
	// LastSeq is the last durably applied batch sequence.
	LastSeq uint64 `json:"last_seq"`
	// IngestToServeP50MS / P99MS measure Apply entry to snapshot swap —
	// how stale a just-acked mutation can be before reads see it.
	IngestToServeP50MS float64 `json:"ingest_to_serve_p50_ms"`
	IngestToServeP99MS float64 `json:"ingest_to_serve_p99_ms"`
	Applied            uint64  `json:"applied"`
	Replayed           uint64  `json:"replayed"`
	Rejected           uint64  `json:"rejected"`
	Compactions        uint64  `json:"compactions"`
	RecoveredRecords   uint64  `json:"recovered_records"`
	Generation         uint64  `json:"generation"`
	WALBytes           int64   `json:"wal_bytes"`
	LastDirtyRoots     int     `json:"last_dirty_roots"`
	MaxDirtyRoots      int     `json:"max_dirty_roots"`
}

// ingestStatus snapshots the engine counters; nil when ingest is off.
func (s *Server) ingestStatus() *IngestStatus {
	if s.ingest == nil {
		return nil
	}
	st := s.ingest.Stats()
	return &IngestStatus{
		Enabled:            true,
		Failed:             st.Failed,
		LastSeq:            st.LastSeq,
		IngestToServeP50MS: st.ApplyP50MS,
		IngestToServeP99MS: st.ApplyP99MS,
		Applied:            st.Applied,
		Replayed:           st.Replayed,
		Rejected:           st.Rejected,
		Compactions:        st.Compactions,
		RecoveredRecords:   st.RecoveredRecords,
		Generation:         st.Generation,
		WALBytes:           st.WALBytes,
		LastDirtyRoots:     st.LastDirtyRoots,
		MaxDirtyRoots:      st.MaxDirtyRoots,
	}
}

// handleIngest serves POST /v1/ingest: validate, admit (bounded write
// queue, 429 + Retry-After beyond it), apply through the WAL-backed
// engine, ack after durability. A daemon running without an ingest
// engine answers 501 with a machine-readable reason, mirroring the
// routing tier.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.ingest == nil {
		s.writeError(w, http.StatusNotImplemented, "ingest_unsupported",
			"daemon was started without streaming ingest (-ingest)", 0)
		return
	}
	if s.draining.Load() {
		s.stats.drained.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", s.cfg.RetryAfter)
		return
	}

	// Fleet followers accept the router's larger body bound; the router
	// guarantees sequenced bodies fit it. Direct-client daemons keep the
	// tight bound.
	bodyLimit := int64(maxRequestBody)
	if s.fleetFollower {
		bodyLimit = FleetMaxRequestBody
	}
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, bodyLimit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error(), 0)
		return
	}
	if req.BatchID == "" || len(req.BatchID) > graph.MaxBatchID {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch_id must be 1-%d bytes", graph.MaxBatchID), 0)
		return
	}
	if len(req.Mutations) == 0 {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request", "mutations must not be empty", 0)
		return
	}
	if req.FleetSeq != 0 {
		// A fleet batch's idempotency key IS its fleet identity: the
		// sequence must be woven into the batch ID, or a duplicate under a
		// different ID would dodge the replay index and apply twice.
		if seq, ok := ingest.ParseFleetSeq(req.BatchID); !ok || seq != req.FleetSeq {
			s.stats.badReq.Add(1)
			s.writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("fleet_seq %d does not match the sequence encoded in batch_id %q", req.FleetSeq, req.BatchID), 0)
			return
		}
		if req.PrevFleetSeq != req.FleetSeq-1 || req.FleetNodes == nil {
			s.stats.badReq.Add(1)
			s.writeError(w, http.StatusBadRequest, "bad_request",
				"a fleet batch carries prev_fleet_seq = fleet_seq-1 and fleet_nodes; this router speaks an older fleet protocol", 0)
			return
		}
	} else if s.fleetFollower {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusForbidden, "fleet_only",
			"this shard applies router-sequenced batches only; send writes to hsgf-router", 0)
		return
	}
	muts, err := DecodeIngestMutations(req.Mutations)
	if err != nil {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_mutation", err.Error(), 0)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestDeadline(0))
	defer cancel()

	// Bounded write admission: the engine is single-writer, so this gate
	// turns sustained write pressure into fast 429s with a backoff hint
	// instead of an unbounded convoy on the engine mutex.
	release, err := s.ingestAdm.acquire(ctx, func() { s.stats.queued.Add(1) })
	if err != nil {
		s.stats.shed.Add(1)
		if err == ErrShed {
			s.writeError(w, http.StatusTooManyRequests, "shed", "ingest queue full", s.cfg.RetryAfter)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, "queue_timeout",
				"deadline expired waiting for the ingest writer", s.cfg.RetryAfter)
		}
		return
	}
	defer release()

	if req.FleetSeq != 0 {
		// Ordering gate, race-free inside the single-writer admission slot:
		// nothing else can advance the watermark between this check and the
		// Apply below.
		wm := s.ingest.FleetWatermark()
		switch {
		case req.FleetSeq <= wm:
			// At or below the watermark: strictly ordered application means
			// this batch was already applied here. If its ID has been
			// evicted from the replay index, re-applying would double-apply
			// (and fail validation on e.g. a duplicate edge), so ack bare;
			// otherwise fall through and let the engine produce the full
			// replayed ack.
			if !s.ingest.HasApplied(req.BatchID) {
				snap := s.snap.Load()
				s.writeJSON(w, http.StatusOK, IngestResponse{
					Replayed:       true,
					Generation:     snap.Generation,
					Fingerprint:    snap.Fingerprint,
					FleetWatermark: wm,
				})
				return
			}
		case req.PrevFleetSeq != wm:
			// Gap: a predecessor has not arrived. Refuse and report the
			// watermark so the router replays everything after it from its
			// sequencer log.
			s.writeErrorExtra(w, http.StatusConflict, "sequence_gap",
				fmt.Sprintf("fleet seq %d claims predecessor %d but this shard's watermark is %d",
					req.FleetSeq, req.PrevFleetSeq, wm), 0,
				map[string]any{"watermark": wm})
			return
		default:
			if g, _, _, _, _ := s.ingest.State(); int64(g.NumNodes()) != *req.FleetNodes {
				s.stats.badReq.Add(1)
				s.writeError(w, http.StatusBadRequest, "graph_mismatch",
					fmt.Sprintf("fleet seq %d applies to a %d-node graph but this shard's graph holds %d nodes at watermark %d: "+
						"its store is not the fleet's graph (a halo shard cut by an older hsgf -partition?); re-partition and re-seed the shard",
						req.FleetSeq, *req.FleetNodes, g.NumNodes(), wm), 0)
				return
			}
		}
	}

	res, err := s.ingest.Apply(ctx, req.BatchID, muts)
	switch {
	case err == nil:
	case errors.Is(err, ingest.ErrBatchInvalid):
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_mutation", err.Error(), 0)
		return
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusServiceUnavailable, "queue_timeout",
			"deadline expired before the batch reached the log", s.cfg.RetryAfter)
		return
	default:
		// Durability-layer failure (WAL write, snapshot IO): the batch
		// was NOT acked and the client must retry with the same batch ID.
		s.writeError(w, http.StatusInternalServerError, "ingest_failed", err.Error(), 0)
		return
	}

	snap := s.snap.Load()
	out := IngestResponse{
		Seq:         res.Seq,
		Replayed:    res.Replayed,
		DirtyRoots:  len(res.DirtyRoots),
		ElapsedMS:   res.Elapsed.Milliseconds(),
		Generation:  res.Generation,
		Fingerprint: snap.Fingerprint,
	}
	if req.FleetSeq != 0 {
		out.FleetWatermark = s.ingest.FleetWatermark()
	}
	s.writeJSON(w, http.StatusOK, out)
}
