package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

// ingestReplica boots one live follower-mode ingest daemon over seed: a
// real serve.Server over a real ingest.Engine, behind an httptest
// listener.
func ingestReplica(t *testing.T, seed *graph.Graph, opts core.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Follower-mode engines take the raised fleet mutation cap, exactly
	// as cmd/hsgfd wires -fleet-follower.
	eng, err := ingest.Open(ingest.Config{Store: st, Opts: opts, MaxBatchMutations: ingest.FleetMaxBatchMutations},
		func() (*graph.Graph, error) { return seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, ex, _, gen, _ := eng.State()
	ss := serve.NewServerSnapshot(&serve.Snapshot{Extractor: ex, Generation: gen, Source: "ingest"}, serve.Config{})
	ss.SetIngestor(eng, "ingest")
	ss.SetFleetFollower(true)
	ts := httptest.NewServer(ss.Handler())
	t.Cleanup(ts.Close)
	return ss, ts
}

// buildIngestFleet partitions g and boots replicas follower-mode ingest
// daemons per shard, each seeded with the whole graph.
func buildIngestFleet(t *testing.T, g *graph.Graph, opts core.Options, nShards, replicas int) *testFleet {
	t.Helper()
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: nShards})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{manifest: BuildManifest(g.NumNodes(), 0, plans)}
	for _, p := range plans {
		var shardURLs []string
		var shardBackends []*httptest.Server
		var shardServers []*serve.Server
		for r := 0; r < replicas; r++ {
			ss, ts := ingestReplica(t, p.Graph, opts)
			shardURLs = append(shardURLs, ts.URL)
			shardBackends = append(shardBackends, ts)
			shardServers = append(shardServers, ss)
		}
		f.urls = append(f.urls, shardURLs)
		f.backends = append(f.backends, shardBackends)
		f.servers = append(f.servers, shardServers)
	}
	return f
}

// ingestConfig extends fastConfig with fleet sequencing over g.
func ingestConfig(t *testing.T, f *testFleet, g *graph.Graph) Config {
	cfg := fastConfig(f)
	cfg.SeqLogPath = filepath.Join(t.TempDir(), "seq.wal")
	cfg.IngestGraph = g
	return cfg
}

func ingestBody(batchID string, muts ...string) string {
	return fmt.Sprintf(`{"batch_id":%q,"mutations":[%s]}`, batchID, strings.Join(muts, ","))
}

func edgeMut(u, v int64) string { return fmt.Sprintf(`{"op":"add_edge","u":%d,"v":%d}`, u, v) }

// TestRouterIngestContract pins the endpoint's edge behaviour: 405 on
// GET, 501 with a machine-readable reason when the router runs without
// a sequencer, and 400s for malformed bodies — none of which may
// contact a shard or consume a fleet sequence.
func TestRouterIngestContract(t *testing.T) {
	// Without -seqlog/-ingest-graph the 501 contract survives.
	bare := newTestRouter(t, Config{Manifest: identityManifest(10), Shards: [][]string{{"http://127.0.0.1:1"}}})
	w := routerDo(t, bare, http.MethodPost, "/v1/ingest", ingestBody("x", edgeMut(0, 1)), nil)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("unconfigured ingest: status %d, want 501 (%s)", w.Code, w.Body.String())
	}
	var e501 struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e501); err != nil || e501.Reason != "ingest_unsupported" {
		t.Fatalf("501 reason = %q (err %v), want ingest_unsupported", e501.Reason, err)
	}

	g := fleetTestGraph(t, 60, 3)
	opts := core.Options{MaxEdges: 2}
	f := buildIngestFleet(t, g, opts, 2, 1)
	rt := newTestRouter(t, ingestConfig(t, f, g))
	defer rt.Close()

	if w := routerDo(t, rt, http.MethodGet, "/v1/ingest", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", w.Code)
	}
	bad := []struct {
		name, body string
	}{
		{"undecodable", `{"batch_id":`},
		{"unknown field", `{"batch_id":"b","mutations":[],"bogus":1}`},
		{"empty mutations", `{"batch_id":"b","mutations":[]}`},
		{"missing batch id", ingestBody("", edgeMut(0, 1))},
		{"pre-sequenced", `{"batch_id":"f1.c","fleet_seq":1,"mutations":[{"op":"add_edge","u":0,"v":1}]}`},
		{"bad op", `{"batch_id":"b","mutations":[{"op":"explode","u":0,"v":1}]}`},
		{"unknown node", ingestBody("b", edgeMut(0, 59000))},
		// IDs that wrap to valid nodes (0 and 4) under int32 truncation.
		{"u beyond int32", `{"batch_id":"b","mutations":[{"op":"add_edge","u":4294967296,"v":2}]}`},
		{"negative v wraps", `{"batch_id":"b","mutations":[{"op":"add_edge","u":2,"v":-4294967292}]}`},
	}
	for _, tc := range bad {
		if w := routerDo(t, rt, http.MethodPost, "/v1/ingest", tc.body, nil); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	// None of the rejects may have consumed a sequence.
	var stats StatsResponse
	routerDo(t, rt, http.MethodGet, "/debug/stats", "", &stats)
	if stats.FleetWatermark != 0 || stats.IngestBatches != 0 {
		t.Fatalf("rejected batches advanced fleet state: %+v", stats)
	}
}

// TestRouterIngestUnreachableShardAnswers503Watermark: when a shard's
// replicas never confirm, the client gets the machine-readable 503
// fleet_partial_apply carrying the fleet watermark rather than a hang
// or a false ack.
func TestRouterIngestUnreachableShardAnswers503Watermark(t *testing.T) {
	g := fleetTestGraph(t, 60, 3)
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{
		manifest: BuildManifest(g.NumNodes(), 0, plans),
		urls:     [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:1"}},
	}
	cfg := ingestConfig(t, f, g)
	cfg.IngestAckTimeout = 50 * time.Millisecond
	rt := newTestRouter(t, cfg)
	defer rt.Close()

	w := routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("b1", `{"op":"add_node","label":"a"}`), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", w.Code, w.Body.String())
	}
	var body struct {
		Reason    string `json:"reason"`
		Watermark uint64 `json:"watermark"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Reason != "fleet_partial_apply" || body.Watermark != 0 {
		t.Fatalf("body = %+v, want fleet_partial_apply at watermark 0", body)
	}

	// The fleet node count grows only when the fleet confirms the batch:
	// the sequenced-but-unconfirmed add_node must NOT be admitted as a
	// /v1/features root, or the router would route it to replicas that
	// have not applied it.
	var meta MetaResponse
	routerDo(t, rt, http.MethodGet, "/v1/meta", "", &meta)
	if meta.NumNodes != 60 {
		t.Fatalf("meta num_nodes = %d after unconfirmed add_node, want 60", meta.NumNodes)
	}
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{60}), nil); w.Code != http.StatusBadRequest {
		t.Fatalf("features for unconfirmed root 60: status %d, want 400 (%s)", w.Code, w.Body.String())
	}
}

// TestRouterFleetIngestEndToEnd is the in-process acceptance check: a
// stream of mutation batches through the router must leave the fleet
// answering /v1/features byte-identically to a single ingest engine fed
// the same stream — including rows rooted at nodes that did not exist
// at partition time — while duplicate client batches ack idempotently.
func TestRouterFleetIngestEndToEnd(t *testing.T) {
	g := fleetTestGraph(t, 120, 11)
	opts := core.Options{MaxEdges: 2, MaskRootLabel: true}
	f := buildIngestFleet(t, g, opts, 3, 1)
	rt := newTestRouter(t, ingestConfig(t, f, g))
	defer rt.Close()

	// Oracle: one engine over the full graph, fed the identical stream.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ingest.Open(ingest.Config{Store: st, Opts: opts},
		func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	type batch struct {
		id   string
		muts []graph.Mutation
	}
	batches := []batch{
		{"b1", []graph.Mutation{{Op: graph.OpAddEdge, U: 0, V: 7}}},
		{"b2", []graph.Mutation{
			{Op: graph.OpAddNode, Label: "b", Name: "n-new"},
			{Op: graph.OpAddEdge, U: 120, V: 3},
		}},
		{"b3", []graph.Mutation{
			{Op: graph.OpAddEdge, U: 120, V: 55},
			{Op: graph.OpRelabel, U: 55, Label: "c"},
		}},
		{"b4", []graph.Mutation{{Op: graph.OpRemoveEdge, U: 0, V: 7}}},
	}
	for i, b := range batches {
		wire := make([]serve.IngestMutation, len(b.muts))
		for j, m := range b.muts {
			wire[j] = serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label, Name: m.Name}
		}
		body, _ := json.Marshal(serve.IngestRequest{BatchID: b.id, Mutations: wire})
		var res IngestResponse
		w := routerDo(t, rt, http.MethodPost, "/v1/ingest", string(body), &res)
		if w.Code != http.StatusOK {
			t.Fatalf("batch %s: status %d (%s)", b.id, w.Code, w.Body.String())
		}
		if res.FleetSeq != uint64(i+1) || res.Watermark != uint64(i+1) {
			t.Fatalf("batch %s: seq %d watermark %d, want both %d", b.id, res.FleetSeq, res.Watermark, i+1)
		}
		if _, err := oracle.Apply(context.Background(), b.id, b.muts); err != nil {
			t.Fatalf("oracle %s: %v", b.id, err)
		}
	}

	// Duplicate retry of an already-acked batch: same sequence, no
	// re-application, replayed flag set.
	{
		body, _ := json.Marshal(serve.IngestRequest{BatchID: "b2", Mutations: []serve.IngestMutation{{Op: "add_edge", U: 0, V: 1}}})
		var res IngestResponse
		w := routerDo(t, rt, http.MethodPost, "/v1/ingest", string(body), &res)
		if w.Code != http.StatusOK || !res.Replayed || res.FleetSeq != 2 {
			t.Fatalf("duplicate b2: status %d %+v", w.Code, res)
		}
	}

	// Differential: rows via the router == rows from the oracle engine,
	// for a root mix that includes the ingested node 120.
	og, ex, _, gen, _ := oracle.State()
	if og.NumNodes() != 121 {
		t.Fatalf("oracle has %d nodes, want 121", og.NumNodes())
	}
	full := serve.NewServerSnapshot(&serve.Snapshot{Extractor: ex, Generation: gen, Source: "ingest"}, serve.Config{})
	roots := []int64{0, 3, 7, 55, 119, 120}
	var want serve.FeaturesResponse
	wOracle := httptest.NewRecorder()
	reqOracle := httptest.NewRequest(http.MethodPost, "/v1/features", strings.NewReader(featuresBody(roots)))
	full.Handler().ServeHTTP(wOracle, reqOracle)
	if wOracle.Code != http.StatusOK {
		t.Fatalf("oracle features: %d %s", wOracle.Code, wOracle.Body.String())
	}
	if err := json.Unmarshal(wOracle.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	var got FeaturesResponse
	w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody(roots), &got)
	if w.Code != http.StatusOK {
		t.Fatalf("router features: %d %s", w.Code, w.Body.String())
	}
	if got.Degraded {
		t.Fatalf("router degraded the batch: %+v", got.Shards)
	}
	for i := range roots {
		gr, wr := got.Rows[i], want.Rows[i]
		gj, _ := json.Marshal(gr)
		wj, _ := json.Marshal(wr)
		if string(gj) != string(wj) {
			t.Errorf("root %d: router row %s != oracle row %s", roots[i], gj, wj)
		}
	}

	// The fleet watermark survives in /debug/stats, and the retention
	// gauges show the chain fully trimmed: every replica of every shard
	// confirmed every chain item before its batch was acked, so nothing
	// remains replayable. The overlay holds the three edge entries b1-b3
	// added; b4 removed b1's edge, which drops its entry.
	var stats StatsResponse
	routerDo(t, rt, http.MethodGet, "/debug/stats", "", &stats)
	if stats.FleetWatermark != 4 || stats.IngestBatches != 4 || stats.IngestReplayed != 1 {
		t.Fatalf("stats = %+v, want watermark 4, 4 batches, 1 replayed", stats)
	}
	if stats.FleetHistoryItems != 0 || stats.FleetHistoryBytes != 0 {
		t.Fatalf("history not trimmed after full confirmation: %d items, %d bytes",
			stats.FleetHistoryItems, stats.FleetHistoryBytes)
	}
	if stats.FleetSeqlogBytes <= 0 || stats.FleetAckedIndex != 4 || stats.FleetOverlayEdges != 2 {
		t.Fatalf("retention gauges = seqlog %d bytes, acked index %d, overlay edges %d; want positive seqlog, 4 acked IDs, 2 edges",
			stats.FleetSeqlogBytes, stats.FleetAckedIndex, stats.FleetOverlayEdges)
	}
}

// TestRouterIngestBatchLimit: a client batch over the followers' caps —
// ingest.FleetMaxBatchMutations mutations, or a follower body past
// serve.FleetMaxRequestBody once the router re-encodes it — is refused
// with 400 batch_too_large BEFORE taking a fleet sequence: a follower
// rejecting a sequenced batch would latch fleet ingest failed on every
// boot. The refusal leaves the overlay untouched, so the next admissible
// batch under the same client ID takes seq 1.
func TestRouterIngestBatchLimit(t *testing.T) {
	g := fleetTestGraph(t, 60, 3)
	opts := core.Options{MaxEdges: 2}
	f := buildIngestFleet(t, g, opts, 2, 1)

	relabels := make([]string, ingest.FleetMaxBatchMutations+1)
	for i := range relabels {
		relabels[i] = `{"op":"relabel","u":0,"label":"b"}`
	}
	// encoding/json writes '<' as \u003c, so names of '<' re-encode
	// six-fold: this body is under 2 MiB, the router's re-encoding past
	// 8 MiB.
	named := make([]string, 400)
	for i := range named {
		named[i] = fmt.Sprintf(`{"op":"add_node","label":"a","name":"%s"}`, strings.Repeat("<", 4096))
	}
	for _, tc := range []struct {
		name string
		muts []string
	}{
		{"mutation_cap", relabels},
		{"byte_cap", named},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRouter(t, ingestConfig(t, f, g))
			defer rt.Close()
			var before StatsResponse
			routerDo(t, rt, http.MethodGet, "/debug/stats", "", &before)

			w := routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("big", tc.muts...), nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("oversized batch: status %d, want 400 (%.300s)", w.Code, w.Body.String())
			}
			var e struct {
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Reason != "batch_too_large" {
				t.Fatalf("reason = %q (err %v), want batch_too_large", e.Reason, err)
			}
			var stats StatsResponse
			routerDo(t, rt, http.MethodGet, "/debug/stats", "", &stats)
			if stats.IngestBatches != 0 || stats.FleetWatermark != 0 || stats.IngestRejected != 1 || stats.FleetSeqlogBytes != before.FleetSeqlogBytes {
				t.Fatalf("refusal consumed fleet state: %+v", stats)
			}
			// A retry of the same client ID with an admissible batch is NOT
			// treated as a duplicate (nothing was sequenced) and takes seq 1.
			var res IngestResponse
			w = routerDo(t, rt, http.MethodPost, "/v1/ingest",
				ingestBody("big", `{"op":"relabel","u":0,"label":"a"}`), &res)
			if w.Code != http.StatusOK || res.Replayed || res.FleetSeq != 1 {
				t.Fatalf("admissible retry: status %d %+v (%s)", w.Code, res, w.Body.String())
			}
		})
	}
}

// TestRouterIngestHaloCutFollowerLatchesFailed: a follower whose store
// holds a halo-cut shard graph (the layout of older partitioners, a
// renumbered induced sub-graph) must refuse fleet batches with 400 and
// apply nothing, and the router must latch fleet ingest failed rather
// than keep feeding it.
func TestRouterIngestHaloCutFollowerLatchesFailed(t *testing.T) {
	g := fleetTestGraph(t, 60, 3)
	opts := core.Options{MaxEdges: 2}
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's old cut: its owned roots plus their neighbours.
	var members []graph.NodeID
	in := make([]bool, g.NumNodes())
	for _, r := range plans[1].OwnedRoots {
		for _, v := range append([]graph.NodeID{r}, g.Neighbors(r)...) {
			if !in[v] {
				in[v] = true
				members = append(members, v)
			}
		}
	}
	cut, _ := graph.Induced(g, members)
	if cut.NumNodes() >= g.NumNodes() {
		t.Fatalf("halo cut holds %d of %d nodes; the test needs a proper sub-graph", cut.NumNodes(), g.NumNodes())
	}
	_, wholeTS := ingestReplica(t, g, opts)
	halo, haloTS := ingestReplica(t, cut, opts)
	f := &testFleet{manifest: BuildManifest(g.NumNodes(), 0, plans), urls: [][]string{{wholeTS.URL}, {haloTS.URL}}}
	cfg := ingestConfig(t, f, g)
	cfg.IngestAckTimeout = 200 * time.Millisecond
	rt := newTestRouter(t, cfg)
	defer rt.Close()

	if w := routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("b1", edgeMut(0, 59)), nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch the halo-cut follower refuses: status %d, want 503 (%s)", w.Code, w.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("b2", edgeMut(1, 59)), nil)
		var e struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &e)
		if w.Code == http.StatusInternalServerError && e.Reason == "fleet_failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router did not latch failed: %d %s", w.Code, w.Body.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	applied := func(ts *httptest.Server) uint64 {
		var st serve.StatsSnapshot
		resp, err := http.Get(ts.URL + "/debug/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Ingest.Applied
	}
	if n := applied(haloTS); n != 0 || halo.Snapshot().Extractor.Graph().NumNodes() != cut.NumNodes() {
		t.Fatalf("the halo-cut follower applied %d fleet batches", n)
	}
	if n := applied(wholeTS); n != 1 {
		t.Fatalf("the whole-graph follower applied %d batches, want 1", n)
	}
}

// TestRouterIngestBootReplayRecoversSequencedBatches: a router killed
// after sequencing but before fan-out must, on restart over the same
// sequencer log, replay the batch to the fleet — the durable sequence
// is a promise even though the client never got its ack.
func TestRouterIngestBootReplayRecoversSequencedBatches(t *testing.T) {
	g := fleetTestGraph(t, 80, 5)
	opts := core.Options{MaxEdges: 2}
	f := buildIngestFleet(t, g, opts, 2, 1)
	cfg := ingestConfig(t, f, g)

	// First router life: sequence two batches but crash (SequenceHook
	// panic, recovered here) before the second is fanned out. The dead
	// router is abandoned un-Closed, like a killed process: its mutex
	// died locked with it.
	crash := make(chan struct{})
	cfg.SequenceHook = func(seq uint64) {
		if seq == 2 {
			close(crash)
			panic("crash between sequencing and fan-out")
		}
	}
	rt := newTestRouter(t, cfg)
	var res IngestResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("b1", edgeMut(0, 9)), &res); w.Code != http.StatusOK {
		t.Fatalf("b1: %d %s", w.Code, w.Body.String())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash hook did not fire")
			}
		}()
		routerDo(t, rt, http.MethodPost, "/v1/ingest", ingestBody("b2", edgeMut(1, 9)), nil)
	}()
	<-crash

	// Second life over the same sequencer log: boot replay must push the
	// orphaned seq 2 to the shards and report watermark 2.
	cfg2 := ingestConfig(t, f, g)
	cfg2.SeqLogPath = cfg.SeqLogPath
	rt2 := newTestRouter(t, cfg2)
	defer rt2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats StatsResponse
		routerDo(t, rt2, http.MethodGet, "/debug/stats", "", &stats)
		if stats.FleetWatermark == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet watermark stuck at %d, want 2 after boot replay", stats.FleetWatermark)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A client retry of the orphaned batch acks idempotently.
	if w := routerDo(t, rt2, http.MethodPost, "/v1/ingest", ingestBody("b2", edgeMut(1, 9)), &res); w.Code != http.StatusOK || !res.Replayed || res.FleetSeq != 2 {
		t.Fatalf("b2 retry: status %d %+v", w.Code, res)
	}
}

// TestRouterRefusesGappedSequencerLog: a sequencer log whose surviving
// records skip a sequence lost acked assignments; the router must refuse
// to boot on it rather than re-sequence over the hole.
func TestRouterRefusesGappedSequencerLog(t *testing.T) {
	g := fleetTestGraph(t, 40, 1)
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seq.wal")
	wal, _, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 3} { // gap: no seq 2
		payload, err := graph.EncodeMutations(fmt.Sprintf("b%d", seq), []graph.Mutation{{Op: graph.OpAddNode, Label: "a"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Manifest:    BuildManifest(g.NumNodes(), 0, plans),
		Shards:      [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:1"}},
		SeqLogPath:  path,
		IngestGraph: g,
	})
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("router booted on a gapped sequencer log: err = %v, want store.ErrCorrupt", err)
	}
}
