package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/serve"
)

// reshapeTransport indents every replica /v1/features body while on: a
// valid body in a shape other than serve's, as a replica of another
// version might send.
type reshapeTransport struct {
	base http.RoundTripper
	on   atomic.Bool
}

func (rt *reshapeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.base.RoundTrip(req)
	if err != nil || !rt.on.Load() || req.URL.Path != "/v1/features" || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, raw, "", "  "); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(&indented)
	resp.ContentLength = int64(indented.Len())
	resp.Header.Del("Content-Length")
	return resp, nil
}

// replyBackend is a scripted replica answering /v1/features with fn's
// response to the decoded request, and every other path with ok.
func replyBackend(t *testing.T, fn func(serve.FeaturesRequest) serve.FeaturesResponse) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/features" {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		var req serve.FeaturesRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("backend got undecodable body: %v", err)
		}
		writeJSON(w, http.StatusOK, fn(req))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// postFeatures sends req to a /v1/features handler and returns the
// response body, failing the test on any status but 200.
func postFeatures(t testing.TB, h http.Handler, req serve.FeaturesRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/features", bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/features status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// replicaRows asks each shard's first replica directly for the given
// roots it owns and returns its rows by root: the rows the router must
// forward.
func replicaRows(t *testing.T, rt *Server, f *testFleet, req serve.FeaturesRequest, shards []int) map[int64]serve.FeatureRow {
	t.Helper()
	out := make(map[int64]serve.FeatureRow)
	for _, si := range shards {
		owned := req
		owned.Roots = nil
		for _, g := range req.Roots {
			if graph.RootShard(graph.NodeID(g), rt.numShards) == si {
				owned.Roots = append(owned.Roots, g)
			}
		}
		var fr serve.FeaturesResponse
		if err := json.Unmarshal(postFeatures(t, f.servers[si][0].Handler(), owned), &fr); err != nil {
			t.Fatal(err)
		}
		for _, row := range fr.Rows {
			out[row.Root] = row
		}
	}
	return out
}

// TestSplicedBodiesMatchEncodingJSON is the splice path's differential
// test. Over cold, warm, budget-truncated, fallback and
// shard-unavailable rows, every router body must be byte-identical to
// encoding/json's re-encoding of its own decode, and every row must
// equal the replica's own answer for its root and, without a budget,
// the single-process daemon's. splice_fallbacks counts only bodies a
// replica sends in another shape, and the latency histogram every 200.
func TestSplicedBodiesMatchEncodingJSON(t *testing.T) {
	g := fleetTestGraph(t, 400, 7)
	opts := core.Options{MaxEdges: 3, MaskRootLabel: true}
	const nShards, deadShard = 3, 2
	f := buildFleet(t, g, opts, nShards, 1)
	reshape := &reshapeTransport{base: http.DefaultTransport}
	cfg := fastConfig(f)
	cfg.Transport = reshape
	rt := newTestRouter(t, cfg)
	fullEx, err := core.NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := serve.NewServer(fullEx, serve.Config{}).Handler()

	var roots []int64
	for v := int64(0); v < int64(g.NumNodes()); v += 3 {
		roots = append(roots, v)
	}
	placeholder := func(root int64) serve.FeatureRow {
		return serve.FeatureRow{Root: root, Flags: "shard-unavailable", Truncated: true, Counts: map[string]int64{}}
	}
	steps := []struct {
		name      string
		budget    int64
		before    func()
		fallbacks bool // replica bodies arrive reshaped
		live      []int
	}{
		{name: "cold", live: []int{0, 1, 2}},
		{name: "warm", live: []int{0, 1, 2}},
		{name: "budget", budget: 2, live: []int{0, 1, 2}},
		{name: "fallback", before: func() { reshape.on.Store(true) }, fallbacks: true, live: []int{0, 1, 2}},
		{name: "unavailable", before: func() { f.backends[deadShard][0].Close() }, fallbacks: true, live: []int{0, 1}},
	}
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		fallbacksBefore := rt.stats.spliceFallbacks.Load()
		req := serve.FeaturesRequest{Roots: roots, RootBudget: st.budget}
		body := postFeatures(t, rt.Handler(), req)

		var got FeaturesResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: undecodable router body: %v", st.name, err)
		}
		var reenc bytes.Buffer
		if err := json.NewEncoder(&reenc).Encode(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, reenc.Bytes()) {
			t.Fatalf("%s: router body differs from encoding/json's re-encoding:\n router: %s\n  json: %s", st.name, body, reenc.Bytes())
		}

		want := replicaRows(t, rt, f, req, st.live)
		var single serve.FeaturesResponse
		if err := json.Unmarshal(postFeatures(t, full, req), &single); err != nil {
			t.Fatal(err)
		}
		degraded, budgetRows := false, 0
		for i, row := range got.Rows {
			w, ok := want[roots[i]]
			if !ok {
				w = placeholder(roots[i])
			} else if st.budget == 0 && !reflect.DeepEqual(w, single.Rows[i]) {
				t.Errorf("%s: root %d: replica row %+v, single-process row %+v", st.name, roots[i], w, single.Rows[i])
			}
			if !reflect.DeepEqual(row, w) {
				t.Errorf("%s: row %d is %+v, want %+v", st.name, i, row, w)
			}
			degraded = degraded || row.Flags != "ok"
			if row.Flags == core.FlagBudgetExceeded.String() {
				budgetRows++
			}
		}
		if got.Degraded != degraded {
			t.Errorf("%s: degraded %v, rows say %v", st.name, got.Degraded, degraded)
		}
		if st.budget > 0 && budgetRows == 0 {
			t.Errorf("%s: no row was budget-truncated", st.name)
		}
		if fellBack := rt.stats.spliceFallbacks.Load() > fallbacksBefore; fellBack != st.fallbacks {
			t.Errorf("%s: splice fallbacks went %d -> %d", st.name, fallbacksBefore, rt.stats.spliceFallbacks.Load())
		}
	}

	var stats StatsResponse
	routerDo(t, rt, http.MethodGet, "/debug/stats", "", &stats)
	if stats.Latency.Samples != len(steps) || stats.Latency.P50US <= 0 {
		t.Errorf("latency %+v after %d reads, want one sample each", stats.Latency, len(steps))
	}
	if stats.SpliceFallbacks != rt.stats.spliceFallbacks.Load() || stats.SpliceFallbacks < nShards {
		t.Errorf("splice_fallbacks %d, want every reshaped body counted", stats.SpliceFallbacks)
	}
}

// TestShardReportNamesAnsweringReplica: with a shard's replicas at
// different generations, each batch's shard report must name the
// generation and fingerprint of the reply that produced its rows, not
// the newest generation any replica has shown.
func TestShardReportNamesAnsweringReplica(t *testing.T) {
	// Each replica stamps its generation into every row's subgraphs.
	backend := func(gen uint64) *httptest.Server {
		return replyBackend(t, func(req serve.FeaturesRequest) serve.FeaturesResponse {
			rows := make([]serve.FeatureRow, len(req.Roots))
			for i, root := range req.Roots {
				rows[i] = serve.FeatureRow{Root: root, Flags: "ok", Subgraphs: int64(gen), Counts: map[string]int64{}}
			}
			return serve.FeaturesResponse{Rows: rows, Fingerprint: fmt.Sprintf("fp%d", gen), Generation: gen}
		})
	}
	a, b := backend(1), backend(2)
	rt := newTestRouter(t, Config{
		Manifest: identityManifest(10),
		Shards:   [][]string{{a.URL, b.URL}},
		// Hedging off: one replica answers each batch.
		HedgeDelay:    time.Hour,
		HedgeMinDelay: time.Hour,
		HedgeMaxDelay: time.Hour,
	})
	seen := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		var got FeaturesResponse
		if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{3}), &got); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		gen := uint64(got.Rows[0].Subgraphs)
		seen[gen] = true
		if rep := got.Shards[0]; rep.Generation != gen || rep.Fingerprint != fmt.Sprintf("fp%d", gen) {
			t.Errorf("batch %d: rows from generation %d, report says generation %d fingerprint %q", i, gen, rep.Generation, rep.Fingerprint)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("only generations %v answered; want both replicas", seen)
	}
}

// TestOutOfOrderRowsFailShardCall: a replica answering the right roots
// in the wrong order fails the shard call, as a wrong row count does:
// the rows degrade, no shard call is counted, and the breaker opens.
func TestOutOfOrderRowsFailShardCall(t *testing.T) {
	ts := replyBackend(t, func(req serve.FeaturesRequest) serve.FeaturesResponse {
		rows := make([]serve.FeatureRow, len(req.Roots))
		for i, root := range req.Roots {
			rows[len(rows)-1-i] = serve.FeatureRow{Root: root, Flags: "ok", Counts: map[string]int64{}}
		}
		return serve.FeaturesResponse{Rows: rows, Fingerprint: "f"}
	})
	rt := newTestRouter(t, Config{
		Manifest: identityManifest(10),
		Shards:   [][]string{{ts.URL}},
		Breaker:  serve.BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Minute},
	})
	for i := 0; i < 4; i++ {
		var got FeaturesResponse
		if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{1, 2}), &got); w.Code != http.StatusOK {
			t.Fatalf("call %d: status %d, want degraded 200", i, w.Code)
		}
		if got.Rows[0].Flags != "shard-unavailable" || got.Rows[0].Root != 1 {
			t.Fatalf("call %d: row %+v, want root 1 flagged shard-unavailable", i, got.Rows[0])
		}
	}
	if n := rt.stats.shardCalls.Load(); n != 0 {
		t.Errorf("shard_calls %d after out-of-order replies, want 0", n)
	}
	if st := rt.shards[0].brk.State(); st != serve.BreakerOpen {
		t.Errorf("breaker %v after out-of-order replies, want open", st)
	}
}

// TestWarmRouterAllocBudget pins the allocation budget of a warm router
// read: a warm 8-root /v1/features over a 2-shard fleet must stay under
// 500 allocations end to end, counting the router's handler, both shard
// calls over loopback HTTP and the replicas' own warm handlers. Run by
// `make bench-smoke` beside serve's TestWarmServeAllocBudget; a
// regression here means per-row decoding crept back into the gather.
func TestWarmRouterAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	g := fleetTestGraph(t, 400, 7)
	opts := core.Options{MaxEdges: 3, MaskRootLabel: true}
	f := buildFleet(t, g, opts, 2, 1)
	rt := newTestRouter(t, fastConfig(f))
	handler := rt.Handler()
	req := serve.FeaturesRequest{Roots: []int64{0, 50, 100, 150, 200, 250, 300, 350}}

	var first FeaturesResponse
	if err := json.Unmarshal(postFeatures(t, handler, req), &first); err != nil { // populate the row caches
		t.Fatal(err)
	}
	if len(first.Shards) != 2 {
		t.Fatalf("batch reached %d shards, want both", len(first.Shards))
	}

	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		postFeatures(t, handler, req)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("warm 8-root router read: %.1f allocs", perReq)
	if perReq > 500 {
		t.Fatalf("warm 8-root router read allocates %.1f objects, budget is 500", perReq)
	}
}

// serveReplies returns real replica bodies for the fuzz corpus: serve's
// answers over a small graph, complete and budget-truncated, with and
// without a store generation.
func serveReplies(tb testing.TB) [][]byte {
	g := fleetTestGraph(tb, 60, 3)
	ex, err := core.NewExtractor(g, core.Options{MaxEdges: 3})
	if err != nil {
		tb.Fatal(err)
	}
	snap := serve.NewSnapshot(ex)
	snap.Generation = 4
	var out [][]byte
	for _, srv := range []*serve.Server{serve.NewServer(ex, serve.Config{}), serve.NewServerSnapshot(snap, serve.Config{})} {
		for _, req := range []serve.FeaturesRequest{{Roots: []int64{0, 5, 9}}, {Roots: []int64{1, 2}, RootBudget: 1}} {
			out = append(out, postFeatures(tb, srv.Handler(), req))
		}
	}
	return out
}

// FuzzScanShardReply holds the scanner to encoding/json: any body it
// accepts is UTF-8 that encoding/json accepts too, and every spliced row
// decodes equal to encoding/json's row; any body encoding/json accepts,
// parseShardReply accepts, through the fallback if need be.
func FuzzScanShardReply(f *testing.F) {
	for _, body := range serveReplies(f) {
		f.Add(body)
	}
	for _, body := range []string{
		`{"rows":[{"root":7,"flags":"budget-exceeded","truncated":true,"subgraphs":3,"counts":{"a<b\\\"":3}}],"degraded":true,"elapsed_ms":0,"fingerprint":"f","generation":2}` + "\n",
		`{"rows":[{"root":7,"flags":"ok","subgraphs":1,"counts":{"é":1}}],"degraded":false,"elapsed_ms":0,"fingerprint":"f"}`,
		`{"rows":[{"root":7,"flags":"ok","subgraphs":1,"counts":{"a":1}}],"degraded":false,"elapsed_ms":0,"fingerprint":"f","extra":1}`,
		`{"rows":[{"root":-0,"flags":"ok","subgraphs":1,"counts":{"a":1}}],"degraded":false,"elapsed_ms":0,"fingerprint":"f"}`,
		`{"rows":[{"root":7,"flags":"ok","subgraphs":1,"counts":{"a":1.5}}],"degraded":false,"elapsed_ms":0,"fingerprint":"f"}`,
		`{"rows":[{"root":7,"flags":"ok","subgraphs":1,"counts":{"a":9223372036854775808}}],"degraded":false,"elapsed_ms":0,"fingerprint":"f"}`,
		"{\"rows\":[{\"root\":7,\"flags\":\"ok\",\"subgraphs\":1,\"counts\":{\"\xff\":1}}],\"degraded\":false,\"elapsed_ms\":0,\"fingerprint\":\"f\"}",
		`{"rows":[{"root":7,"flags":"ok","subgraphs":1,"counts":null}],"degraded":false,"elapsed_ms":0,"fingerprint":"f"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want serve.FeaturesResponse
		decodeErr := json.Unmarshal(body, &want)
		if reply, ok := scanShardReply(body); ok {
			if decodeErr != nil {
				t.Fatalf("scanner accepted a body encoding/json refuses (%v): %q", decodeErr, body)
			}
			if !utf8.Valid(body) {
				t.Fatalf("scanner accepted a body that is not UTF-8: %q", body)
			}
			checkReply(t, reply, &want, body)
		}
		if decodeErr != nil {
			return
		}
		reply, _, err := parseShardReply(body)
		if err != nil {
			t.Fatalf("encoding/json decodes %q but parseShardReply refuses it: %v", body, err)
		}
		checkReply(t, reply, &want, body)
	})
}

// checkReply compares a scanned reply with encoding/json's decode of the
// same body, splicing each row as the router does.
func checkReply(t *testing.T, reply *shardReply, want *serve.FeaturesResponse, body []byte) {
	t.Helper()
	if reply.generation != want.Generation || reply.fingerprint != want.Fingerprint || len(reply.rows) != len(want.Rows) {
		t.Fatalf("reply generation %d fingerprint %q with %d rows; encoding/json: %d %q %d rows\nbody %q",
			reply.generation, reply.fingerprint, len(reply.rows), want.Generation, want.Fingerprint, len(want.Rows), body)
	}
	for i, row := range reply.rows {
		spliced := append([]byte(`{"root":`+strconv.FormatInt(row.root, 10)), row.tail...)
		var got serve.FeatureRow
		if err := json.Unmarshal(spliced, &got); err != nil {
			t.Fatalf("row %d splices to %q, which encoding/json refuses: %v", i, spliced, err)
		}
		w := want.Rows[i]
		if w.Counts == nil {
			w.Counts = map[string]int64{}
		}
		if !reflect.DeepEqual(got, w) || row.ok != (w.Flags == "ok") {
			t.Fatalf("row %d: spliced %q (ok %v) decodes to %+v, encoding/json's row %+v\nbody %q", i, spliced, row.ok, got, w, body)
		}
	}
}
