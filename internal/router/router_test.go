package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/latency"
	"hsgf/internal/retry"
	"hsgf/internal/serve"
)

// fleetTestGraph builds a connected labelled graph with hubs and
// periphery (same shape the partitioner tests use).
func fleetTestGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("a", "b", "c"))
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(graph.Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		if err := b.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v)); err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(n)
		if u != v {
			if err := b.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.MustBuild()
}

// testFleet is an in-process shard fleet: real serve.Servers behind
// httptest listeners, one per replica, over halo-partitioned shard
// graphs.
type testFleet struct {
	manifest *Manifest
	urls     [][]string
	backends [][]*httptest.Server // [shard][replica]
	servers  [][]*serve.Server
}

// buildFleet partitions g into nShards shards with haloDepth and boots
// replicas serve.Servers per shard.
func buildFleet(t *testing.T, g *graph.Graph, opts core.Options, nShards, haloDepth, replicas int) *testFleet {
	t.Helper()
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: nShards, HaloDepth: haloDepth})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{manifest: BuildManifest(g.NumNodes(), haloDepth, plans)}
	for _, p := range plans {
		var shardURLs []string
		var shardBackends []*httptest.Server
		var shardServers []*serve.Server
		for r := 0; r < replicas; r++ {
			ex, err := core.NewExtractor(p.Graph, opts)
			if err != nil {
				t.Fatal(err)
			}
			ss := serve.NewServer(ex, serve.Config{})
			ts := httptest.NewServer(ss.Handler())
			t.Cleanup(ts.Close)
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

// fastConfig returns a router config with millisecond-scale retry
// timings so failure tests finish quickly.
func fastConfig(f *testFleet) Config {
	return Config{
		Manifest:  f.manifest,
		Shards:    f.urls,
		FailAfter: 1,
		Retry:     retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Breaker:   serve.BreakerConfig{Window: 128, MinSamples: 64, Cooldown: time.Minute},
	}
}

func newTestRouter(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func routerDo(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("undecodable %s response %q: %v", path, w.Body.String(), err)
		}
	}
	return w
}

func featuresBody(roots []int64) string {
	b, _ := json.Marshal(serve.FeaturesRequest{Roots: roots})
	return string(b)
}

// TestScatterGatherMatchesSingleProcess is the acceptance-criteria
// differential test: a mixed-root batch answered by the router over a
// halo-partitioned fleet must be byte-equivalent, row by row, to the
// same batch answered by one hsgfd over the full graph.
func TestScatterGatherMatchesSingleProcess(t *testing.T) {
	g := fleetTestGraph(t, 400, 7)
	opts := core.Options{MaxEdges: 3, MaskRootLabel: true}
	// Halo depth = emax is exact without dmax.
	f := buildFleet(t, g, opts, 4, opts.MaxEdges, 1)
	rt := newTestRouter(t, fastConfig(f))

	fullEx, err := core.NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := serve.NewServer(fullEx, serve.Config{})
	fullTS := httptest.NewServer(full.Handler())
	defer fullTS.Close()

	// Every 3rd root: a mixed batch spanning all shards.
	var roots []int64
	for v := int64(0); v < int64(g.NumNodes()); v += 3 {
		roots = append(roots, v)
	}

	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody(roots), &got); w.Code != http.StatusOK {
		t.Fatalf("router status %d: %s", w.Code, w.Body.String())
	}
	if got.Degraded {
		t.Fatalf("healthy fleet answered degraded: %+v", got.Shards)
	}

	resp, err := http.Post(fullTS.URL+"/v1/features", "application/json", strings.NewReader(featuresBody(roots)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var want serve.FeaturesResponse
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}

	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("router returned %d rows, single process %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		gb, _ := json.Marshal(got.Rows[i])
		wb, _ := json.Marshal(want.Rows[i])
		if string(gb) != string(wb) {
			t.Errorf("row %d (root %d) diverges:\n router: %s\n single: %s", i, want.Rows[i].Root, gb, wb)
		}
	}
}

// TestScatterGatherMatchesWithDmax repeats the differential over a
// dmax-pruned extraction, where exactness needs halo depth emax+1.
func TestScatterGatherMatchesWithDmax(t *testing.T) {
	g := fleetTestGraph(t, 300, 11)
	opts := core.Options{MaxEdges: 3, MaxDegree: 8}
	f := buildFleet(t, g, opts, 3, opts.MaxEdges+1, 1)
	rt := newTestRouter(t, fastConfig(f))

	fullEx, err := core.NewExtractor(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := serve.NewServer(fullEx, serve.Config{})

	var roots []int64
	for v := int64(0); v < int64(g.NumNodes()); v += 5 {
		roots = append(roots, v)
	}
	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody(roots), &got); w.Code != http.StatusOK {
		t.Fatalf("router status %d: %s", w.Code, w.Body.String())
	}
	wReq := httptest.NewRequest(http.MethodPost, "/v1/features", strings.NewReader(featuresBody(roots)))
	wRec := httptest.NewRecorder()
	full.Handler().ServeHTTP(wRec, wReq)
	var want serve.FeaturesResponse
	if err := json.Unmarshal(wRec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows {
		gb, _ := json.Marshal(got.Rows[i])
		wb, _ := json.Marshal(want.Rows[i])
		if string(gb) != string(wb) {
			t.Errorf("row %d diverges under dmax:\n router: %s\n single: %s", i, gb, wb)
		}
	}
}

// TestShardFailurePartialResults: killing every replica of one shard
// must not fail the batch — its rows come back flagged
// shard-unavailable on a 200 while other shards' rows stay exact.
func TestShardFailurePartialResults(t *testing.T) {
	g := fleetTestGraph(t, 200, 3)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 3, opts.MaxEdges, 1)
	rt := newTestRouter(t, fastConfig(f))

	const deadShard = 1
	f.backends[deadShard][0].Close()

	var roots []int64
	for v := int64(0); v < int64(g.NumNodes()); v += 2 {
		roots = append(roots, v)
	}
	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody(roots), &got); w.Code != http.StatusOK {
		t.Fatalf("batch failed with %d despite partial-result degradation: %s", w.Code, w.Body.String())
	}
	if !got.Degraded {
		t.Fatal("response not marked degraded with a dead shard")
	}
	deadRows, okRows := 0, 0
	for i, row := range got.Rows {
		if row.Root != roots[i] {
			t.Fatalf("row %d is root %d, want %d (order must be preserved)", i, row.Root, roots[i])
		}
		if graph.RootShard(graph.NodeID(row.Root), 3) == deadShard {
			deadRows++
			if row.Flags != "shard-unavailable" || !row.Truncated || row.Subgraphs != 0 {
				t.Errorf("dead-shard row %+v, want flagged shard-unavailable, truncated, empty", row)
			}
		} else {
			okRows++
			if row.Flags != "ok" {
				t.Errorf("healthy-shard row %d flagged %q", row.Root, row.Flags)
			}
		}
	}
	if deadRows == 0 || okRows == 0 {
		t.Fatalf("degenerate batch: %d dead rows, %d ok rows", deadRows, okRows)
	}
	for _, rep := range got.Shards {
		if rep.Shard == deadShard && (rep.OK || rep.Error == "") {
			t.Errorf("dead shard reported ok: %+v", rep)
		}
	}
	if n := rt.stats.unavailableRows.Load(); n != int64(deadRows) {
		t.Errorf("unavailableRows stat %d, want %d", n, deadRows)
	}
}

// TestFailoverToSecondReplica: with the first replica of a shard dead,
// requests fail over to the surviving replica with zero client-visible
// errors.
func TestFailoverToSecondReplica(t *testing.T) {
	g := fleetTestGraph(t, 120, 5)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 1, opts.MaxEdges, 2)
	rt := newTestRouter(t, fastConfig(f))

	f.backends[0][0].Close()

	for round := 0; round < 4; round++ {
		var got FeaturesResponse
		if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{1, 2, 3}), &got); w.Code != http.StatusOK {
			t.Fatalf("round %d: status %d with a healthy replica up: %s", round, w.Code, w.Body.String())
		}
		if got.Degraded {
			t.Fatalf("round %d: degraded answer with a healthy replica up", round)
		}
	}
	if rt.stats.failovers.Load()+rt.stats.hedgeWins.Load()+rt.stats.retries.Load() == 0 {
		t.Error("no failover/hedge/retry recorded while primary replica was dead")
	}
	// Passive accounting must have marked the dead replica down.
	if rt.shards[0].replicas[0].healthy.Load() {
		t.Error("dead replica still marked healthy after FailAfter transport failures")
	}
}

// TestRouterReleasesManifest: New reads the manifest's ID tables into
// the shards' dense lookup tables — and, with fleet ingest, cross-checks
// them against the ingest graph — and keeps no reference to it, so a
// manifest the caller drops is collected while the router lives on.
func TestRouterReleasesManifest(t *testing.T) {
	g := fleetTestGraph(t, 150, 29)
	for _, fleetIngest := range []bool{false, true} {
		t.Run(fmt.Sprintf("ingest=%v", fleetIngest), func(t *testing.T) {
			plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: 2, HaloDepth: 2})
			if err != nil {
				t.Fatal(err)
			}
			m := BuildManifest(g.NumNodes(), 2, plans)
			collected := make(chan struct{})
			runtime.SetFinalizer(m, func(*Manifest) { close(collected) })
			cfg := Config{Manifest: m, Shards: [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:1"}}}
			if fleetIngest {
				cfg.SeqLogPath = filepath.Join(t.TempDir(), "seq.wal")
				cfg.IngestGraph = g
			}
			rt := newTestRouter(t, cfg)
			defer rt.Close()
			m, cfg.Manifest, plans = nil, nil, nil

			deadline := time.After(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					if w := routerDo(t, rt, http.MethodGet, "/v1/meta", "", nil); w.Code != http.StatusOK {
						t.Fatalf("router unusable after its manifest was collected: %d", w.Code)
					}
					return
				case <-deadline:
					t.Fatal("manifest still reachable from the router after New returned")
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}

// identityManifest maps a single shard over all n nodes (local == global).
func identityManifest(n int) *Manifest {
	l2g := make(NodeIDs, n)
	for i := range l2g {
		l2g[i] = graph.NodeID(i)
	}
	return &Manifest{
		Version:   manifestVersion,
		NumShards: 1,
		HaloDepth: 1,
		NumNodes:  n,
		Shards:    []ShardManifest{{Shard: 0, OwnedRoots: n, LocalToGlobal: l2g}},
	}
}

// echoBackend is a scripted shard replica: it answers /v1/features with
// ok rows after running each queued hook.
func echoBackend(t *testing.T, hook func(w http.ResponseWriter, call int) bool) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/features" {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		mu.Lock()
		calls++
		call := calls
		mu.Unlock()
		if hook != nil && hook(w, call) {
			return
		}
		var req serve.FeaturesRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("backend got undecodable body: %v", err)
		}
		rows := make([]serve.FeatureRow, len(req.Roots))
		for i, root := range req.Roots {
			rows[i] = serve.FeatureRow{Root: root, Flags: "ok", Subgraphs: 1, Counts: map[string]int64{"x": 1}}
		}
		writeJSON(w, http.StatusOK, serve.FeaturesResponse{Rows: rows, Fingerprint: "f", Generation: 1})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRetryHonorsServerHint: a 503 with retry_after_ms must stretch the
// backoff to the server's hint rather than the (much smaller) computed
// delay.
func TestRetryHonorsServerHint(t *testing.T) {
	ts := echoBackend(t, func(w http.ResponseWriter, call int) bool {
		if call == 1 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"error":          serve.ErrorDetail{Code: "shed", Message: "full"},
				"reason":         "shed",
				"retry_after_ms": 500,
			})
			return true
		}
		return false
	})

	var mu sync.Mutex
	var sleeps []time.Duration
	cfg := Config{
		Manifest: identityManifest(10),
		Shards:   [][]string{{ts.URL}},
		Retry: retry.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
			Sleep: func(ctx context.Context, d time.Duration) error {
				mu.Lock()
				sleeps = append(sleeps, d)
				mu.Unlock()
				return nil
			},
		},
	}
	rt := newTestRouter(t, cfg)
	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{4}), &got); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got.Degraded {
		t.Fatal("degraded despite successful retry")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sleeps) != 1 {
		t.Fatalf("%d backoff sleeps, want 1 (one retry)", len(sleeps))
	}
	if sleeps[0] != 500*time.Millisecond {
		t.Fatalf("backoff slept %v, want the server's 500ms hint to override the computed delay", sleeps[0])
	}
}

// TestHedgedRequestBeatsSlowReplica: a primary stuck well past the
// hedge delay is beaten by the hedge to the other replica; the client
// sees the fast answer.
func TestHedgedRequestBeatsSlowReplica(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := echoBackend(t, func(w http.ResponseWriter, call int) bool {
		<-release // park until the test ends
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	fast := echoBackend(t, nil)

	cfg := Config{
		Manifest:      identityManifest(10),
		Shards:        [][]string{{slow.URL, fast.URL}},
		HedgeDelay:    5 * time.Millisecond,
		HedgeMinDelay: time.Millisecond,
		ShardTimeout:  10 * time.Second,
	}
	rt := newTestRouter(t, cfg)

	start := time.Now()
	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{1, 2}), &got); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v; hedge never rescued it", elapsed)
	}
	if got.Degraded {
		t.Fatal("hedged answer degraded")
	}
	if rt.stats.hedges.Load() == 0 || rt.stats.hedgeWins.Load() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", rt.stats.hedges.Load(), rt.stats.hedgeWins.Load())
	}
}

// TestHedgeLosesToLatePrimary: the hedge fires, but the primary answers
// before the hedge leg does; that is a hedge, not a hedge win.
func TestHedgeLosesToLatePrimary(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var order atomic.Int32 // arrival order across both replicas
	hook := func(w http.ResponseWriter, call int) bool {
		if order.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond) // the primary, past the hedge delay
			return false
		}
		<-release // the hedge leg parks until the test ends
		w.WriteHeader(http.StatusInternalServerError)
		return true
	}
	a, b := echoBackend(t, hook), echoBackend(t, hook)

	rt := newTestRouter(t, Config{
		Manifest:      identityManifest(10),
		Shards:        [][]string{{a.URL, b.URL}},
		HedgeDelay:    5 * time.Millisecond,
		HedgeMinDelay: time.Millisecond,
		ShardTimeout:  10 * time.Second,
	})
	var got FeaturesResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{1, 2}), &got); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got.Degraded {
		t.Fatal("primary answer degraded")
	}
	if h, wins := rt.stats.hedges.Load(), rt.stats.hedgeWins.Load(); h != 1 || wins != 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1 and 0", h, wins)
	}
}

// TestHedgeDelayPolicy pins the hedge trigger: the configured default
// until minHedgeSamples calls are known, then the p95 of the shard's
// recent successful calls clamped to [HedgeMinDelay, HedgeMaxDelay].
func TestHedgeDelayPolicy(t *testing.T) {
	rt := newTestRouter(t, Config{
		Manifest:      identityManifest(10),
		Shards:        [][]string{{"http://127.0.0.1:1", "http://127.0.0.1:2"}},
		HedgeDelay:    30 * time.Millisecond,
		HedgeMinDelay: 2 * time.Millisecond,
		HedgeMaxDelay: 200 * time.Millisecond,
	})
	sh := rt.shards[0]
	observe := func(n int, d time.Duration) {
		for i := 0; i < n; i++ {
			sh.lat.Observe(d)
		}
	}

	observe(minHedgeSamples-1, time.Second)
	if d := rt.hedgeDelay(sh); d != 30*time.Millisecond {
		t.Fatalf("%d samples: delay %v, want the 30ms default", minHedgeSamples-1, d)
	}
	observe(1, time.Second)
	if d := rt.hedgeDelay(sh); d != 200*time.Millisecond {
		t.Fatalf("p95 of 1s: delay %v, want it clamped to the 200ms max", d)
	}
	observe(latency.Window, 100*time.Microsecond)
	if d := rt.hedgeDelay(sh); d != 2*time.Millisecond {
		t.Fatalf("p95 of 100µs: delay %v, want it clamped to the 2ms min", d)
	}
	// Each full window of calls replaces the last, and the trigger
	// follows its p95: the 973rd of 1024 calls, not the median or the
	// slowest.
	for _, p95 := range []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 5 * time.Millisecond} {
		observe(512, p95/4)
		observe(461, p95)
		observe(51, 4*p95)
		if d := rt.hedgeDelay(sh); d < p95 || d > p95*9/8 {
			t.Fatalf("recent p95 %v: delay %v", p95, d)
		}
	}
}

// TestBreakerShortCircuitsDeadShard: a shard failing every call trips
// its breaker; subsequent batches degrade immediately without burning
// retries against the dead replica set.
func TestBreakerShortCircuitsDeadShard(t *testing.T) {
	g := fleetTestGraph(t, 60, 9)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 1, opts.MaxEdges, 1)
	cfg := fastConfig(f)
	cfg.Breaker = serve.BreakerConfig{Window: 4, MinSamples: 2, Cooldown: time.Minute}
	rt := newTestRouter(t, cfg)
	f.backends[0][0].Close()

	for i := 0; i < 8; i++ {
		var got FeaturesResponse
		w := routerDo(t, rt, http.MethodPost, "/v1/features", featuresBody([]int64{1}), &got)
		if w.Code != http.StatusOK {
			t.Fatalf("call %d: status %d, want degraded 200", i, w.Code)
		}
		if got.Rows[0].Flags != "shard-unavailable" {
			t.Fatalf("call %d: flags %q", i, got.Rows[0].Flags)
		}
	}
	if rt.stats.breakerRejects.Load() == 0 {
		t.Error("breaker never short-circuited a call to the dead shard")
	}
	if st := rt.shards[0].brk.State(); st != serve.BreakerOpen {
		t.Errorf("shard breaker %v after sustained failure, want open", st)
	}
}

// TestFleetReloadFlipsEveryReplica: the happy path — verify everywhere,
// then flip shard-by-shard; every replica serves the new generation.
func TestFleetReloadFlipsEveryReplica(t *testing.T) {
	g := fleetTestGraph(t, 100, 13)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 2, opts.MaxEdges, 2)
	rt := newTestRouter(t, fastConfig(f))

	for si := range f.servers {
		for _, ss := range f.servers[si] {
			ss := ss
			ss.SetReloader(func(ctx context.Context) (*serve.Snapshot, error) {
				next := serve.NewSnapshot(ss.Snapshot().Extractor)
				next.Generation = 7
				return next, nil
			})
		}
	}

	var resp FleetReloadResponse
	if w := routerDo(t, rt, http.MethodPost, "/v1/admin/reload", "", &resp); w.Code != http.StatusOK {
		t.Fatalf("fleet reload status %d: %s", w.Code, w.Body.String())
	}
	if resp.Outcome != "ok" {
		t.Fatalf("outcome %q: %s", resp.Outcome, resp.Error)
	}
	for _, shState := range resp.Shards {
		for _, repState := range shState.Replicas {
			if !repState.Flipped || repState.Generation != 7 {
				t.Errorf("replica %s: flipped=%v generation=%d, want flipped generation 7", repState.URL, repState.Flipped, repState.Generation)
			}
		}
	}
	for si := range f.servers {
		for ri, ss := range f.servers[si] {
			if gen := ss.Snapshot().Generation; gen != 7 {
				t.Errorf("shard %d replica %d serving generation %d after fleet reload, want 7", si, ri, gen)
			}
		}
	}
}

// TestFleetReloadVerifyFailureFlipsNothing: one replica failing
// verification aborts the whole protocol with zero flips anywhere.
func TestFleetReloadVerifyFailureFlipsNothing(t *testing.T) {
	g := fleetTestGraph(t, 100, 17)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 2, opts.MaxEdges, 2)
	rt := newTestRouter(t, fastConfig(f))

	for si := range f.servers {
		for ri, ss := range f.servers[si] {
			ss := ss
			if si == 1 && ri == 1 {
				ss.SetReloader(func(ctx context.Context) (*serve.Snapshot, error) {
					return nil, fmt.Errorf("store checksum mismatch")
				})
				continue
			}
			ss.SetReloader(func(ctx context.Context) (*serve.Snapshot, error) {
				next := serve.NewSnapshot(ss.Snapshot().Extractor)
				next.Generation = 7
				return next, nil
			})
		}
	}

	w := routerDo(t, rt, http.MethodPost, "/v1/admin/reload", "", nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 on verify failure", w.Code)
	}
	var resp FleetReloadResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != "verify_failed" {
		t.Fatalf("outcome %q, want verify_failed", resp.Outcome)
	}
	for si := range f.servers {
		for ri, ss := range f.servers[si] {
			if gen := ss.Snapshot().Generation; gen != 0 {
				t.Errorf("shard %d replica %d flipped to generation %d despite an aborted verify phase", si, ri, gen)
			}
		}
	}
}

// TestFleetReloadGenerationDisagreementAborts: replicas of one shard
// verifying different generations (diverged stores) must abort.
func TestFleetReloadGenerationDisagreementAborts(t *testing.T) {
	g := fleetTestGraph(t, 100, 19)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 1, opts.MaxEdges, 2)
	rt := newTestRouter(t, fastConfig(f))

	for ri, ss := range f.servers[0] {
		ss := ss
		gen := uint64(7 + ri) // replica 1 claims generation 8
		ss.SetReloader(func(ctx context.Context) (*serve.Snapshot, error) {
			next := serve.NewSnapshot(ss.Snapshot().Extractor)
			next.Generation = gen
			return next, nil
		})
	}
	w := routerDo(t, rt, http.MethodPost, "/v1/admin/reload", "", nil)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 on generation disagreement", w.Code)
	}
	var resp FleetReloadResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Outcome != "verify_failed" || !strings.Contains(resp.Error, "disagree") {
		t.Fatalf("outcome %q (%s), want verify_failed on disagreement", resp.Outcome, resp.Error)
	}
	for ri, ss := range f.servers[0] {
		if gen := ss.Snapshot().Generation; gen != 0 {
			t.Errorf("replica %d flipped to %d despite disagreement abort", ri, gen)
		}
	}
}

// TestReadyzDegradedSemantics: ready while all shards have a healthy
// replica, degraded-but-200 when one shard is down, 503 when no shard
// is reachable.
func TestReadyzDegradedSemantics(t *testing.T) {
	g := fleetTestGraph(t, 80, 23)
	opts := core.Options{MaxEdges: 2}
	f := buildFleet(t, g, opts, 2, opts.MaxEdges, 1)
	rt := newTestRouter(t, fastConfig(f))

	if w := routerDo(t, rt, http.MethodGet, "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthy fleet readyz %d", w.Code)
	}
	rt.shards[0].replicas[0].healthy.Store(false)
	w := routerDo(t, rt, http.MethodGet, "/readyz", "", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "degraded") {
		t.Fatalf("one-shard-down readyz = %d %s, want 200 degraded", w.Code, w.Body.String())
	}
	rt.shards[1].replicas[0].healthy.Store(false)
	if w := routerDo(t, rt, http.MethodGet, "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-shards-down readyz = %d, want 503", w.Code)
	}
}

// TestRequestValidation: malformed batches are rejected with the typed
// error shape before any shard is contacted.
func TestRequestValidation(t *testing.T) {
	rt := newTestRouter(t, Config{Manifest: identityManifest(10), Shards: [][]string{{"http://127.0.0.1:1"}}})
	cases := []struct {
		body string
		want string
	}{
		{`{}`, "bad_request"},
		{`{"roots":[]}`, "bad_request"},
		{`{"roots":[99]}`, "bad_request"}, // out of range
		{`{"roots":[-1]}`, "bad_request"},
		{`{"roots":[1],"nope":true}`, "bad_request"},
	}
	for _, tc := range cases {
		w := routerDo(t, rt, http.MethodPost, "/v1/features", tc.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.body, w.Code)
		}
		var body struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &body)
		if body.Reason != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.body, body.Reason, tc.want)
		}
	}
}

// TestProbeLoopDetectsDeath: the active /readyz probe marks a dead
// replica down without any traffic touching it.
func TestProbeLoopDetectsDeath(t *testing.T) {
	ts := echoBackend(t, nil)
	cfg := Config{
		Manifest:      identityManifest(10),
		Shards:        [][]string{{ts.URL}},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	}
	rt := newTestRouter(t, cfg)
	rt.StartProbes()
	defer rt.StopProbes()

	rep := rt.shards[0].replicas[0]
	deadline := time.Now().Add(5 * time.Second)
	ts.CloseClientConnections()
	ts.Close()
	for rep.healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never marked the dead replica down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
