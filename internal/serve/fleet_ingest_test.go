package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hsgf/internal/ingest"
)

// fleetBody builds a fleet-sequenced ingest request adding one edge to
// the 5-node seed graph.
func fleetBody(seq, prev uint64, u, v int) string {
	return fmt.Sprintf(`{"batch_id":%q,"fleet_seq":%d,"prev_fleet_seq":%d,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":%d,"v":%d}]}`,
		ingest.FleetBatchID(seq, "c"), seq, prev, u, v)
}

// TestFleetIngestOrderingProtocol drives the shard-side half of the
// fleet protocol: in-order batches apply, a gap is refused with 409 +
// the shard's watermark, the missing batch repairs the gap, and the
// refused batch then applies.
func TestFleetIngestOrderingProtocol(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	s.SetFleetFollower(true)

	var res IngestResponse
	w := doJSON(t, s, http.MethodPost, "/v1/ingest", fleetBody(1, 0, 0, 2), &res)
	if w.Code != http.StatusOK || res.FleetWatermark != 1 {
		t.Fatalf("seq 1: status %d watermark %d (%s)", w.Code, res.FleetWatermark, w.Body.String())
	}

	// Seq 3 before seq 2: refused, watermark reported.
	w = doJSON(t, s, http.MethodPost, "/v1/ingest", fleetBody(3, 2, 0, 4), nil)
	if w.Code != http.StatusConflict {
		t.Fatalf("gap: status %d, want 409 (%s)", w.Code, w.Body.String())
	}
	var gap struct {
		Reason    string `json:"reason"`
		Watermark uint64 `json:"watermark"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.Reason != "sequence_gap" || gap.Watermark != 1 {
		t.Fatalf("gap body = %+v, want sequence_gap at watermark 1", gap)
	}
	if eng.FleetWatermark() != 1 {
		t.Fatalf("refused batch moved the engine watermark to %d", eng.FleetWatermark())
	}

	// Replay the missing seq 2, then seq 3 goes through.
	for seq := uint64(2); seq <= 3; seq++ {
		res = IngestResponse{}
		w = doJSON(t, s, http.MethodPost, "/v1/ingest", fleetBody(seq, seq-1, 0, int(seq+1)), &res)
		if w.Code != http.StatusOK || res.FleetWatermark != seq {
			t.Fatalf("seq %d after repair: status %d watermark %d (%s)", seq, w.Code, res.FleetWatermark, w.Body.String())
		}
	}
}

// TestFleetFollowerAcceptsLargeSubBatch: a fleet follower takes
// router-sequenced bodies up to FleetMaxRequestBody — the router's
// re-encoding of a client batch can pass the 1 MiB direct-client bound
// — while a direct-mode daemon keeps rejecting the same payload size.
// The raised bound is load-bearing: the router refuses oversized client
// batches against THIS limit before sequencing, so a follower rejecting
// a sequenced batch for size (which would latch the router failed on
// every boot replay) must be impossible.
func TestFleetFollowerAcceptsLargeSubBatch(t *testing.T) {
	// ~1.3 MiB of add_node mutations: over the direct bound, under the
	// fleet one.
	var muts []string
	for i := 0; i < 320; i++ {
		muts = append(muts, fmt.Sprintf(`{"op":"add_node","label":"loc","name":%q}`, strings.Repeat("n", 4096)))
	}
	payload := "[" + strings.Join(muts, ",") + "]"

	follower, eng := newIngestServer(t, Config{})
	follower.SetFleetFollower(true)
	body := fmt.Sprintf(`{"batch_id":%q,"fleet_seq":1,"fleet_nodes":5,"mutations":%s}`, ingest.FleetBatchID(1, "c"), payload)
	if len(body) <= 1<<20 {
		t.Fatalf("test body only %d bytes; must exceed the 1 MiB direct bound", len(body))
	}
	var res IngestResponse
	if w := doJSON(t, follower, http.MethodPost, "/v1/ingest", body, &res); w.Code != http.StatusOK || res.FleetWatermark != 1 {
		t.Fatalf("follower large fleet body: status %d watermark %d (%.200s)", w.Code, res.FleetWatermark, w.Body.String())
	}
	if eng.FleetWatermark() != 1 {
		t.Fatalf("engine watermark %d after large fleet body, want 1", eng.FleetWatermark())
	}

	direct, _ := newIngestServer(t, Config{})
	directBody := fmt.Sprintf(`{"batch_id":"big","mutations":%s}`, payload)
	if w := doJSON(t, direct, http.MethodPost, "/v1/ingest", directBody, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("direct daemon accepted a %d-byte body: status %d, want 400", len(directBody), w.Code)
	}
}

// TestFleetIngestDuplicatesAckWithoutReapplying covers both replay
// shapes: a duplicate still in the replay index acks via the engine,
// and a duplicate below the watermark whose ID was evicted acks bare —
// neither touches graph state.
func TestFleetIngestDuplicatesAckWithoutReapplying(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	s.SetFleetFollower(true)
	for seq := uint64(1); seq <= 3; seq++ {
		w := doJSON(t, s, http.MethodPost, "/v1/ingest", fleetBody(seq, seq-1, 0, int(seq+1)), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("seq %d: %d %s", seq, w.Code, w.Body.String())
		}
	}
	g, _, _, _, _ := eng.State()
	edges := g.NumEdges()

	// Duplicate of seq 2 (still indexed): engine replay ack.
	var res IngestResponse
	w := doJSON(t, s, http.MethodPost, "/v1/ingest", fleetBody(2, 1, 0, 3), &res)
	if w.Code != http.StatusOK || !res.Replayed || res.Seq != 2 {
		t.Fatalf("indexed duplicate: status %d %+v", w.Code, res)
	}

	// Duplicate of seq 2 under a batch ID the index never saw (models
	// eviction): the watermark alone proves it was applied; bare ack.
	body := fmt.Sprintf(`{"batch_id":%q,"fleet_seq":2,"prev_fleet_seq":1,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":0,"v":3}]}`,
		ingest.FleetBatchID(2, "other-client"))
	res = IngestResponse{}
	w = doJSON(t, s, http.MethodPost, "/v1/ingest", body, &res)
	if w.Code != http.StatusOK || !res.Replayed || res.Seq != 0 || res.FleetWatermark != 3 {
		t.Fatalf("evicted duplicate: status %d %+v", w.Code, res)
	}

	if g2, _, _, _, _ := eng.State(); g2.NumEdges() != edges {
		t.Fatalf("duplicates changed the graph: %d -> %d edges", edges, g2.NumEdges())
	}
}

// TestFleetFollowerRejectsDirectWrites: a shard behind the router must
// not accept unsequenced client batches — they would diverge it from
// the fleet.
func TestFleetFollowerRejectsDirectWrites(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	s.SetFleetFollower(true)
	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"direct","mutations":[{"op":"add_edge","u":0,"v":2}]}`, nil)
	if w.Code != http.StatusForbidden {
		t.Fatalf("direct write: status %d, want 403 (%s)", w.Code, w.Body.String())
	}
	if got := errorCode(t, w); got != "fleet_only" {
		t.Fatalf("reason = %q, want fleet_only", got)
	}
}

// TestFleetIngestRejectsMismatchedFrame: fleet_seq must be the sequence
// woven into batch_id, prev must be its predecessor, and the node count
// must be present: a body from a router of the older per-shard protocol
// (prev skipping sequences that did not touch the shard, no node count)
// is refused, never applied.
func TestFleetIngestRejectsMismatchedFrame(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	cases := []string{
		// fleet_seq contradicts batch_id.
		fmt.Sprintf(`{"batch_id":%q,"fleet_seq":2,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, ingest.FleetBatchID(1, "c")),
		// plain batch_id with a fleet_seq.
		`{"batch_id":"plain","fleet_seq":1,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":0,"v":2}]}`,
		// prev >= seq.
		fmt.Sprintf(`{"batch_id":%q,"fleet_seq":2,"prev_fleet_seq":2,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, ingest.FleetBatchID(2, "c")),
		// prev short of seq-1.
		fmt.Sprintf(`{"batch_id":%q,"fleet_seq":3,"prev_fleet_seq":1,"fleet_nodes":5,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, ingest.FleetBatchID(3, "c")),
		// no node count.
		fmt.Sprintf(`{"batch_id":%q,"fleet_seq":1,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, ingest.FleetBatchID(1, "c")),
	}
	for i, body := range cases {
		w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%s)", i, w.Code, w.Body.String())
		}
	}
}

// TestFleetIngestRefusesOtherGraph: a follower whose graph does not
// hold the node count a fleet batch applies to — a halo shard cut by an
// older partitioner holds fewer nodes, under other IDs — answers 400
// graph_mismatch and applies nothing.
func TestFleetIngestRefusesOtherGraph(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	s.SetFleetFollower(true)
	body := fmt.Sprintf(`{"batch_id":%q,"fleet_seq":1,"fleet_nodes":9,"mutations":[{"op":"add_edge","u":0,"v":2}]}`, ingest.FleetBatchID(1, "c"))
	w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, nil)
	if w.Code != http.StatusBadRequest || errorCode(t, w) != "graph_mismatch" {
		t.Fatalf("batch for a 9-node graph: status %d (%s), want 400 graph_mismatch", w.Code, w.Body.String())
	}
	if g, _, _, _, _ := eng.State(); eng.FleetWatermark() != 0 || g.NumEdges() != 4 {
		t.Fatalf("refused batch applied: watermark %d, %d edges", eng.FleetWatermark(), g.NumEdges())
	}
}

// TestReadyzReportsIngestFailed (satellite): a latched-failed engine
// must flip /readyz to 503 with a machine-readable reason so the shard
// drops out of router rotation, not just a flag in /debug/stats.
func TestReadyzReportsIngestFailed(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	w := doJSON(t, s, http.MethodGet, "/readyz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthy readyz = %d", w.Code)
	}

	eng.LatchFailure()
	w = doJSON(t, s, http.MethodGet, "/readyz", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("failed-engine readyz = %d, want 503 (%s)", w.Code, w.Body.String())
	}
	var body struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "unready" || body.Reason != "ingest_failed" {
		t.Fatalf("readyz body = %+v, want unready/ingest_failed", body)
	}
}
