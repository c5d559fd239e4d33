package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/store"
)

// ingestSeed is a small fixed graph: loc-org-act path plus a spur, so
// mutations have non-trivial dirty balls.
func ingestSeed(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("loc", "org", "act"))
	for _, l := range []graph.Label{0, 1, 2, 0, 1} {
		if _, err := b.AddLabeledNode(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.MustBuild()
}

// newIngestServer builds a server wired to a live ingest engine over a
// temp store.
func newIngestServer(t testing.TB, cfg Config) (*Server, *ingest.Engine) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ingest.Open(ingest.Config{Store: st, Opts: core.Options{MaxEdges: 2}},
		func() (*graph.Graph, error) { return ingestSeed(t), nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, ex, _, gen, _ := eng.State()
	s := NewServerSnapshot(&Snapshot{Extractor: ex, Generation: gen, Source: "ingest"}, cfg)
	s.SetIngestor(eng, "ingest")
	return s, eng
}

// TestIngestApplyServesFresh proves the acked-means-serving contract:
// once POST /v1/ingest returns 200, the mutated graph is what /v1/meta
// and the serving snapshot expose, with a new fingerprint.
func TestIngestApplyServesFresh(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	var before MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &before)
	if before.Ingest == nil || !before.Ingest.Enabled {
		t.Fatal("meta is missing the ingest block on an ingest-enabled daemon")
	}

	var res IngestResponse
	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"b1","mutations":[{"op":"add_node","label":"act"},{"op":"add_edge","u":4,"v":5}]}`, &res)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: status %d, body %s", w.Code, w.Body.String())
	}
	if res.Seq != 1 || res.Replayed || res.DirtyRoots == 0 || res.Fingerprint == "" {
		t.Fatalf("ingest response = %+v", res)
	}

	var after MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &after)
	if after.Nodes != before.Nodes+1 || after.Edges != before.Edges+1 {
		t.Fatalf("meta after ingest: %d nodes / %d edges, want %d / %d",
			after.Nodes, after.Edges, before.Nodes+1, before.Edges+1)
	}
	if after.Fingerprint == before.Fingerprint {
		t.Fatal("fingerprint did not change although the graph shape did")
	}
	if after.Fingerprint != res.Fingerprint {
		t.Fatalf("meta fingerprint %s != ingest ack fingerprint %s", after.Fingerprint, res.Fingerprint)
	}
	if after.Ingest.LastSeq != 1 {
		t.Fatalf("freshness watermark last_seq = %d, want 1", after.Ingest.LastSeq)
	}
}

// TestIngestReplayAcknowledged proves the idempotency contract over
// HTTP: re-sending a batch ID acks with the original sequence and
// replayed=true, and does not mutate state again.
func TestIngestReplayAcknowledged(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	const body = `{"batch_id":"retry-me","mutations":[{"op":"add_edge","u":0,"v":2}]}`
	var first, second IngestResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, &first); w.Code != http.StatusOK {
		t.Fatalf("first send: status %d, body %s", w.Code, w.Body.String())
	}
	var mid MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &mid)
	if w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, &second); w.Code != http.StatusOK {
		t.Fatalf("replay: status %d, body %s", w.Code, w.Body.String())
	}
	if !second.Replayed || second.Seq != first.Seq {
		t.Fatalf("replay ack = %+v, want replayed with seq %d", second, first.Seq)
	}
	var after MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &after)
	if after.Edges != mid.Edges {
		t.Fatalf("replay re-applied the batch: %d edges, want %d", after.Edges, mid.Edges)
	}
}

// TestIngestBadRequests pins the 400 taxonomy: malformed JSON, unknown
// op, empty batch, missing batch ID, and a semantically invalid batch
// (self loop) all fail fast with machine-readable reasons, and none of
// them advance the watermark.
func TestIngestBadRequests(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	cases := []struct {
		name, body, reason string
	}{
		{"malformed json", `{"batch_id":`, "bad_request"},
		{"unknown field", `{"batch_id":"x","mutations":[],"extra":1}`, "bad_request"},
		{"missing batch id", `{"mutations":[{"op":"add_edge","u":0,"v":2}]}`, "bad_request"},
		{"empty batch", `{"batch_id":"x","mutations":[]}`, "bad_request"},
		{"unknown op", `{"batch_id":"x","mutations":[{"op":"upsert_edge","u":0,"v":2}]}`, "bad_mutation"},
		{"self loop", `{"batch_id":"x","mutations":[{"op":"add_edge","u":1,"v":1}]}`, "bad_mutation"},
		{"duplicate edge", `{"batch_id":"x","mutations":[{"op":"add_edge","u":0,"v":1}]}`, "bad_mutation"},
		{"unknown label", `{"batch_id":"x","mutations":[{"op":"add_node","label":"nope"}]}`, "bad_mutation"},
		// These int64 IDs would wrap into the VALID mutation 0-2 (resp.
		// 2-4) under int32 truncation, silently mutating the wrong nodes;
		// the handler must reject them before conversion.
		{"u beyond int32", `{"batch_id":"x","mutations":[{"op":"add_edge","u":4294967296,"v":2}]}`, "bad_mutation"},
		{"negative v wraps", `{"batch_id":"x","mutations":[{"op":"add_edge","u":2,"v":-4294967292}]}`, "bad_mutation"},
	}
	for _, tc := range cases {
		var body errorBody
		w := doJSON(t, s, http.MethodPost, "/v1/ingest", tc.body, &body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
		if body.Reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, body.Reason, tc.reason)
		}
	}
	if seq := eng.Stats().LastSeq; seq != 0 {
		t.Fatalf("rejected batches advanced the watermark to %d", seq)
	}
	// The rejected batch IDs were never recorded: "x" is still usable.
	var res IngestResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"x","mutations":[{"op":"add_edge","u":0,"v":2}]}`, &res); w.Code != http.StatusOK {
		t.Fatalf("batch id of a rejected batch is burned: status %d", w.Code)
	}
}

// TestIngestWithoutEngine501 pins the no-engine contract: a daemon
// started without streaming ingest answers POST /v1/ingest with 501 and
// a machine-readable reason, mirroring reload_unsupported.
func TestIngestWithoutEngine501(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var body errorBody
	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"x","mutations":[{"op":"add_edge","u":0,"v":2}]}`, &body)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", w.Code)
	}
	if body.Reason != "ingest_unsupported" {
		t.Fatalf("reason %q, want ingest_unsupported", body.Reason)
	}
	// And the observability surfaces omit the ingest block entirely.
	var meta MetaResponse
	doJSON(t, s, http.MethodGet, "/v1/meta", "", &meta)
	if meta.Ingest != nil {
		t.Fatal("meta carries an ingest block on a daemon without ingest")
	}
	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.Ingest != nil {
		t.Fatal("stats carry an ingest block on a daemon without ingest")
	}
}

// TestIngestSheds429 saturates the single-writer admission gate and
// checks arrivals beyond the bounded queue get 429 + Retry-After while
// the queued writer still completes once the slot frees.
func TestIngestSheds429(t *testing.T) {
	s, _ := newIngestServer(t, Config{MaxQueue: 1, RetryAfter: 2 * time.Second})

	// Occupy the only ingest slot directly (in-package test privilege).
	release, err := s.ingestAdm.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// One writer fits in the queue and blocks...
	queuedDone := make(chan *IngestResponse, 1)
	go func() {
		var res IngestResponse
		doJSON(t, s, http.MethodPost, "/v1/ingest",
			`{"batch_id":"queued","mutations":[{"op":"add_edge","u":0,"v":2}]}`, &res)
		queuedDone <- &res
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.ingestAdm.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never entered the ingest queue")
		}
		time.Sleep(time.Millisecond)
	}

	// ...and the next arrival is shed with a backoff hint.
	var body errorBody
	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"shed","mutations":[{"op":"add_edge","u":0,"v":3}]}`, &body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if body.Reason != "shed" || w.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response missing reason/backoff: reason %q, Retry-After %q",
			body.Reason, w.Header().Get("Retry-After"))
	}

	release()
	select {
	case res := <-queuedDone:
		if res.Seq != 1 {
			t.Fatalf("queued writer got seq %d, want 1", res.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued writer never completed after the slot freed")
	}
}

// TestIngestDraining503 checks ingest participates in graceful drain.
func TestIngestDraining503(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	s.draining.Store(true)
	var body errorBody
	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"x","mutations":[{"op":"add_edge","u":0,"v":2}]}`, &body)
	if w.Code != http.StatusServiceUnavailable || body.Reason != "draining" {
		t.Fatalf("status %d reason %q, want 503 draining", w.Code, body.Reason)
	}
}

// TestIngestObservability checks the freshness watermark rides along on
// /debug/stats and /readyz once batches flow.
func TestIngestObservability(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	for i, b := range []string{"a", "b"} {
		var res IngestResponse
		body := `{"batch_id":"` + b + `","mutations":[{"op":"relabel","u":0,"label":"org"}]}`
		if i == 1 {
			body = `{"batch_id":"b","mutations":[{"op":"relabel","u":0,"label":"loc"}]}`
		}
		if w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, &res); w.Code != http.StatusOK {
			t.Fatalf("batch %s: status %d, body %s", b, w.Code, w.Body.String())
		}
	}
	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.Ingest == nil || !stats.Ingest.Enabled {
		t.Fatal("stats missing ingest block")
	}
	if stats.Ingest.LastSeq != 2 || stats.Ingest.Applied != 2 {
		t.Fatalf("ingest stats = %+v, want last_seq 2 applied 2", stats.Ingest)
	}
	if stats.Ingest.WALBytes == 0 {
		t.Fatal("wal_bytes = 0 after two durable batches")
	}
	var ready struct {
		Status string        `json:"status"`
		Ingest *IngestStatus `json:"ingest"`
	}
	w := doJSON(t, s, http.MethodGet, "/readyz", "", &ready)
	if w.Code != http.StatusOK || ready.Ingest == nil || ready.Ingest.LastSeq != 2 {
		t.Fatalf("readyz = %d %+v, want 200 with ingest watermark 2", w.Code, ready)
	}
}
