package serve

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// --- rowCache unit tests ------------------------------------------------

func TestRowCacheLRUEviction(t *testing.T) {
	c := newRowCache(cacheShardCount) // one row per shard
	// Same root, different budgets: all three keys land in one shard, so
	// the per-shard bound of 1 forces eviction in LRU order.
	k := func(budget int64) rowKey { return rowKey{root: 7, budget: budget} }
	c.put(k(1), 1, rowResult{data: []byte(`1`)})
	c.put(k(2), 1, rowResult{data: []byte(`2`)})
	if _, ok := c.get(k(1), 1); ok {
		t.Error("oldest entry survived past the shard bound")
	}
	if res, ok := c.get(k(2), 1); !ok || string(res.data) != `2` {
		t.Errorf("newest entry lost: %v %q", ok, res.data)
	}
	if got := c.evicted.Load(); got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
}

func TestRowCacheEpochInvalidation(t *testing.T) {
	c := newRowCache(0)
	key := rowKey{root: 3, budget: 10}
	c.put(key, 1, rowResult{data: []byte(`x`)})
	if _, ok := c.get(key, 1); !ok {
		t.Fatal("fresh entry missed")
	}
	// A lookup from a newer epoch drops the entry on sight...
	if _, ok := c.get(key, 2); ok {
		t.Fatal("stale-epoch entry served")
	}
	// ...permanently: even the original epoch can no longer see it.
	if _, ok := c.get(key, 1); ok {
		t.Fatal("stale entry resurrected")
	}
	if rows, bytes := c.usage(); rows != 0 || bytes != 0 {
		t.Errorf("usage = %d rows, %d bytes after invalidation, want 0, 0", rows, bytes)
	}
}

func TestRowCacheJoinFulfillShare(t *testing.T) {
	c := newRowCache(0)
	key := rowKey{root: 1}

	_, hit, f, leader := c.join(key, 1)
	if hit || !leader || f == nil {
		t.Fatalf("first join: hit=%v leader=%v", hit, leader)
	}
	_, hit2, f2, leader2 := c.join(key, 1)
	if hit2 || leader2 || f2 != f {
		t.Fatalf("second join must follow the same flight: hit=%v leader=%v same=%v", hit2, leader2, f2 == f)
	}
	// A join under a different epoch must NOT coalesce onto a flight
	// computing against another snapshot.
	_, _, f3, leader3 := c.join(key, 2)
	if !leader3 || f3 == f {
		t.Fatal("cross-epoch join coalesced onto a stale flight")
	}

	want := rowResult{data: []byte(`row`), degraded: false}
	c.fulfill(key, f, want, true)
	select {
	case <-f.done:
	default:
		t.Fatal("fulfill did not close done")
	}
	if !f.shared || string(f.res.data) != `row` {
		t.Fatalf("flight result = shared=%v %q", f.shared, f.res.data)
	}
	// Deterministic results are cached by fulfill; cross-epoch flights
	// don't see them (epoch 2 lookup drops the epoch-1 entry).
	if res, hit, _, _ := c.join(key, 1); !hit || string(res.data) != `row` {
		t.Fatalf("post-fulfill join: hit=%v %q", hit, res.data)
	}
}

func TestRowCacheAbandonWakesFollowers(t *testing.T) {
	c := newRowCache(0)
	key := rowKey{root: 2}
	_, _, f, leader := c.join(key, 1)
	if !leader {
		t.Fatal("expected leadership")
	}
	c.abandon(key, f)
	select {
	case <-f.done:
	default:
		t.Fatal("abandon did not close done")
	}
	if f.shared {
		t.Fatal("abandoned flight marked shareable")
	}
	// The flight is deregistered: the next join starts a fresh one.
	if _, hit, f2, leader2 := c.join(key, 1); hit || !leader2 || f2 == f {
		t.Fatal("abandoned flight not deregistered")
	}
}

// --- differential: cached vs uncached bytes -----------------------------

var elapsedRE = regexp.MustCompile(`"elapsed_ms":\d+`)

// normalizeElapsed zeroes the one nondeterministic field of a features
// response so bodies can be compared byte for byte.
func normalizeElapsed(body string) string {
	return elapsedRE.ReplaceAllString(body, `"elapsed_ms":0`)
}

// TestCachedResponseByteIdentical pins the cached-row contract: a
// response expanded from cached compact rows is byte-identical (modulo
// elapsed_ms) to the cold response that populated the cache AND to a
// cache-disabled server over the same extractor — complete rows and
// deterministic budget-truncated rows alike.
func TestCachedResponseByteIdentical(t *testing.T) {
	ex, err := core.NewExtractor(testGraph(t, 30), core.Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	cached := NewServer(ex, Config{})
	uncached := NewServer(ex, Config{RowCache: -1})

	for _, body := range []string{
		`{"roots":[0,5,9,0]}`,             // duplicates included
		`{"roots":[1,2],"root_budget":1}`, // deterministic truncation
	} {
		cold := doJSON(t, cached, http.MethodPost, "/v1/features", body, nil)
		warm := doJSON(t, cached, http.MethodPost, "/v1/features", body, nil)
		plain := doJSON(t, uncached, http.MethodPost, "/v1/features", body, nil)
		if cold.Code != 200 || warm.Code != 200 || plain.Code != 200 {
			t.Fatalf("%s: codes %d/%d/%d", body, cold.Code, warm.Code, plain.Code)
		}
		c, w, p := normalizeElapsed(cold.Body.String()), normalizeElapsed(warm.Body.String()), normalizeElapsed(plain.Body.String())
		if c != w {
			t.Errorf("%s: warm response differs from cold:\ncold: %s\nwarm: %s", body, c, w)
		}
		if c != p {
			t.Errorf("%s: cached server differs from uncached:\ncached:   %s\nuncached: %s", body, c, p)
		}
	}

	var stats StatsSnapshot
	doJSON(t, cached, http.MethodGet, "/debug/stats", "", &stats)
	if stats.Cache == nil || !stats.Cache.Enabled {
		t.Fatal("/debug/stats missing the cache block")
	}
	// Second pass of each body served every row from cache (duplicates
	// hit within one request as well).
	if stats.Cache.Hits < 6 || stats.Cache.Misses == 0 {
		t.Errorf("cache counters = %+v, want >=6 hits and >0 misses", stats.Cache)
	}
	var snapUn StatsSnapshot
	doJSON(t, uncached, http.MethodGet, "/debug/stats", "", &snapUn)
	if snapUn.Cache != nil {
		t.Error("cache block present on a cache-disabled server")
	}
}

// TestNondeterministicRowsNeverCached: a row flagged by a per-root
// deadline depends on scheduling, so serving it twice must recompute it
// rather than replay the first truncation. The census checks its
// deadline only at poll points every 1024 candidate steps, so the root
// must outlast the first of them: at emax 4 without leaf batching (one
// step or more per subgraph), root 0 of the 30-node test graph has
// thousands of subgraphs. Stalling the root's start past the 1 ms
// deadline then makes the first poll flag it, every run.
func TestNondeterministicRowsNeverCached(t *testing.T) {
	ex, err := core.NewExtractor(testGraph(t, 30), core.Options{MaxEdges: 4, DisableLeafBatching: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := ex.Census(0).Subgraphs; n < 4096 {
		t.Fatalf("root 0 has %d subgraphs; the census may finish before its first deadline poll", n)
	}
	s := NewServer(ex, Config{})
	var once sync.Once
	ex.SetFaultHooks(&core.FaultHooks{OnRootStart: func(root graph.NodeID) {
		once.Do(func() { time.Sleep(20 * time.Millisecond) })
	}})
	defer ex.SetFaultHooks(nil)

	const body = `{"roots":[0],"root_deadline_ms":1}`
	var resp FeaturesResponse
	doJSON(t, s, http.MethodPost, "/v1/features", body, &resp)
	if !resp.Degraded || len(resp.Rows) != 1 || !strings.Contains(resp.Rows[0].Flags, "deadline") {
		t.Fatalf("root stalled past its deadline was not flagged: degraded %v, rows %+v", resp.Degraded, resp.Rows)
	}
	if got, _ := s.cache.usage(); got != 0 {
		t.Fatalf("deadline-truncated row was cached (%d entries)", got)
	}
	hits := s.cache.hits.Load()
	doJSON(t, s, http.MethodPost, "/v1/features", body, nil)
	if s.cache.hits.Load() != hits {
		t.Fatal("second request hit the cache: the truncated row was replayed")
	}
}

// --- cache interplay with the serving gates -----------------------------

// TestCacheHitsServeWhileBreakerOpen: a full-cache-hit request performs
// no extraction, so it must keep serving while the breaker sheds the
// miss path.
func TestCacheHitsServeWhileBreakerOpen(t *testing.T) {
	s, _ := newTestServer(t, Config{Breaker: BreakerConfig{Window: 2, MinSamples: 1, TripRatio: 0.5, Cooldown: time.Hour}})
	if w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("warming request = %d", w.Code)
	}

	done, ok := s.Breaker().Acquire()
	if !ok {
		t.Fatal("closed breaker refused")
	}
	done(true)
	if s.Breaker().State() != BreakerOpen {
		t.Fatal("breaker not open")
	}

	if w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil); w.Code != http.StatusOK {
		t.Errorf("cached request with open breaker = %d, want 200", w.Code)
	}
	// Any miss still goes through the gate chain and is rejected.
	w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[2]}`, nil)
	if w.Code != http.StatusServiceUnavailable || errorCode(t, w) != "breaker_open" {
		t.Errorf("miss with open breaker = %d %q, want 503 breaker_open", w.Code, errorCode(t, w))
	}
}

// TestRequestCoalescing: N concurrent requests for the same cold
// (epoch, root, limits) perform exactly one extraction; followers share
// the leader's compact row and the responses are
// byte-identical.
func TestRequestCoalescing(t *testing.T) {
	s, ex := newTestServer(t, Config{})
	const root = graph.NodeID(5)
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var extractions atomic.Int64
	ex.SetFaultHooks(&core.FaultHooks{OnRootStart: func(r graph.NodeID) {
		if r == root {
			extractions.Add(1)
			once.Do(func() { close(started) })
			<-gate
		}
	}})
	defer ex.SetFaultHooks(nil)

	bodies := make([]string, 3)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[5]}`, nil)
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			bodies[i] = normalizeElapsed(w.Body.String())
		}(i)
		if i == 0 {
			<-started // the leader's flight is registered before extraction
		}
	}
	// Wait until the followers are admitted (3 slots held), give them a
	// beat to park on the flight, then let the leader finish.
	for s.adm.inFlight() < 3 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := extractions.Load(); got != 1 {
		t.Errorf("root extracted %d times across 3 concurrent requests, want 1", got)
	}
	if bodies[0] == "" || bodies[0] != bodies[1] || bodies[0] != bodies[2] {
		t.Errorf("coalesced responses differ:\n%s\n%s\n%s", bodies[0], bodies[1], bodies[2])
	}
	shared := s.cache.coalesced.Load() + s.cache.hits.Load()
	if shared < 2 {
		t.Errorf("coalesced+hits = %d, want >= 2 (both followers shared the leader's row)", shared)
	}
}

// --- invalidation across reload and ingest publish ----------------------

// TestReloadInvalidatesCache: rows cached against the old generation
// must never be served after a hot reload swaps the snapshot.
func TestReloadInvalidatesCache(t *testing.T) {
	s, exA, exB := reloadableServer(t, Config{})
	var before FeaturesResponse
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, &before)
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil) // cache hit
	epochBefore := s.epoch.Load()

	if w := doJSON(t, s, http.MethodPost, "/v1/admin/reload", "", nil); w.Code != http.StatusOK {
		t.Fatalf("reload = %d", w.Code)
	}
	if got := s.epoch.Load(); got != epochBefore+1 {
		t.Fatalf("epoch %d after reload, want %d", got, epochBefore+1)
	}

	var after FeaturesResponse
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, &after)
	if after.Fingerprint != fingerprint(exB) {
		t.Fatalf("post-reload fingerprint %s, want %s", after.Fingerprint, fingerprint(exB))
	}
	for i, row := range after.Rows {
		if want := exB.Census(graph.NodeID(row.Root)).Subgraphs; row.Subgraphs != want {
			t.Errorf("row %d: %d subgraphs, new generation computes %d (stale cached row?)", i, row.Subgraphs, want)
		}
	}
	if before.Fingerprint != fingerprint(exA) {
		t.Errorf("pre-reload fingerprint %s, want %s", before.Fingerprint, fingerprint(exA))
	}
}

// TestIngestPublishInvalidatesCache: once POST /v1/ingest acks, cached
// rows from the pre-mutation snapshot must be gone — acked-means-serving
// extends to the cache.
func TestIngestPublishInvalidatesCache(t *testing.T) {
	s, eng := newIngestServer(t, Config{})
	var before FeaturesResponse
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1,2,3,4]}`, &before)

	w := doJSON(t, s, http.MethodPost, "/v1/ingest",
		`{"batch_id":"c1","mutations":[{"op":"add_edge","u":0,"v":2}]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body.String())
	}

	var after FeaturesResponse
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1,2,3,4]}`, &after)
	if after.Fingerprint == before.Fingerprint {
		t.Fatal("fingerprint unchanged although the graph shape changed")
	}
	_, ex, _, _, _ := eng.State()
	for i, row := range after.Rows {
		if want := ex.Census(graph.NodeID(row.Root)).Subgraphs; row.Subgraphs != want {
			t.Errorf("row %d: %d subgraphs, post-ingest extractor computes %d (stale cached row?)", i, row.Subgraphs, want)
		}
	}
}

// TestIngestReplayKeepsCache: a duplicate-replay ack republishes state
// the server already serves; the publish hook must recognise it by
// pointer identity and keep the epoch — and with it every cached row —
// intact.
func TestIngestReplayKeepsCache(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	const batch = `{"batch_id":"r1","mutations":[{"op":"add_edge","u":1,"v":3}]}`
	if w := doJSON(t, s, http.MethodPost, "/v1/ingest", batch, nil); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d", w.Code)
	}
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil)
	epochBefore := s.epoch.Load()
	hitsBefore := s.cache.hits.Load()

	var replay IngestResponse
	if w := doJSON(t, s, http.MethodPost, "/v1/ingest", batch, &replay); w.Code != http.StatusOK || !replay.Replayed {
		t.Fatalf("replay = %d %+v", w.Code, replay)
	}
	if got := s.epoch.Load(); got != epochBefore {
		t.Fatalf("replay advanced the epoch %d -> %d and flushed the cache", epochBefore, got)
	}
	doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1]}`, nil)
	if got := s.cache.hits.Load(); got != hitsBefore+2 {
		t.Errorf("hits %d -> %d across a replay, want +2 (cache survived)", hitsBefore, got)
	}
}

// --- stale rows under concurrent load (-race) ---------------------------

// TestCacheReloadUnderLoadNoStaleRows hammers /v1/features while
// reloads continuously swap between two generations, with the row cache
// enabled. Every response must be row-for-row consistent with the
// generation its fingerprint names — a cached row from the other
// generation leaking in is the failure this test exists to catch.
func TestCacheReloadUnderLoadNoStaleRows(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, exA, exB := reloadableServer(t, Config{MaxInFlight: 8, MaxQueue: 1024})

	// Oracle: per generation, the expected subgraph count of every root
	// the clients request. Computed before the load starts.
	oracle := map[string][]int64{fingerprint(exA): make([]int64, 20), fingerprint(exB): make([]int64, 20)}
	for r := 0; r < 20; r++ {
		oracle[fingerprint(exA)][r] = exA.Census(graph.NodeID(r)).Subgraphs
		oracle[fingerprint(exB)][r] = exB.Census(graph.NodeID(r)).Subgraphs
	}

	const (
		clients   = 8
		perClient = 40
	)
	var (
		failed  atomic.Int64
		stopRel = make(chan struct{})
		relWG   sync.WaitGroup
	)
	relWG.Add(1)
	go func() {
		defer relWG.Done()
		for {
			select {
			case <-stopRel:
				return
			default:
			}
			s.Reload(context.Background())
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var resp FeaturesResponse
				body := fmt.Sprintf(`{"roots":[%d,%d,%d]}`, i%20, (i+3)%20, (i+7)%20)
				w := doJSON(t, s, http.MethodPost, "/v1/features", body, &resp)
				if w.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("client %d req %d: status %d", c, i, w.Code)
					continue
				}
				want, ok := oracle[resp.Fingerprint]
				if !ok {
					failed.Add(1)
					t.Errorf("client %d req %d: unknown fingerprint %q", c, i, resp.Fingerprint)
					continue
				}
				for _, row := range resp.Rows {
					if row.Subgraphs != want[row.Root] {
						failed.Add(1)
						t.Errorf("client %d req %d: STALE ROW root %d: %d subgraphs, generation %s computes %d",
							c, i, row.Root, row.Subgraphs, resp.Fingerprint, want[row.Root])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopRel)
	relWG.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d consistency violations under reload load", failed.Load())
	}
	var stats StatsSnapshot
	doJSON(t, s, http.MethodGet, "/debug/stats", "", &stats)
	if stats.ReloadOK == 0 {
		t.Error("no reload completed during the load window")
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Error("load ran entirely cold; the cache path was not exercised")
	}
	t.Logf("reloads=%d cache=%+v", stats.ReloadOK, stats.Cache)

	waitForGoroutineBaseline(t, baseline)
}

// TestCacheIngestPublishUnderLoadNoStaleRows hammers /v1/features while
// a writer streams mutation batches through /v1/ingest. Each batch adds
// a node and an edge, so every publish has a distinct fingerprint; the
// writer records the expected censuses per fingerprint and every read
// response is checked against the generation it claims to be from.
func TestCacheIngestPublishUnderLoadNoStaleRows(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, eng := newIngestServer(t, Config{MaxInFlight: 8, MaxQueue: 1024})

	const seedRoots = 5
	var oracle sync.Map // fingerprint -> [seedRoots]int64
	record := func() {
		_, ex, _, _, _ := eng.State()
		var subs [seedRoots]int64
		for r := 0; r < seedRoots; r++ {
			subs[r] = ex.Census(graph.NodeID(r)).Subgraphs
		}
		oracle.Store(fingerprint(ex), subs)
	}
	record() // seed state

	const (
		batches   = 15
		clients   = 6
		perClient = 30
	)
	var (
		failed  atomic.Int64
		checked atomic.Int64
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < batches; k++ {
			body := fmt.Sprintf(
				`{"batch_id":"load-%d","mutations":[{"op":"add_node","label":"act"},{"op":"add_edge","u":%d,"v":%d}]}`,
				k, seedRoots+k, k%seedRoots)
			if w := doJSON(t, s, http.MethodPost, "/v1/ingest", body, nil); w.Code != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", k, w.Code, w.Body.String())
				return
			}
			record()
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var resp FeaturesResponse
				w := doJSON(t, s, http.MethodPost, "/v1/features", `{"roots":[0,1,2,3,4]}`, &resp)
				if w.Code != http.StatusOK {
					failed.Add(1)
					t.Errorf("client %d req %d: status %d", c, i, w.Code)
					continue
				}
				v, ok := oracle.Load(resp.Fingerprint)
				if !ok {
					// Published but not yet recorded by the writer; the next
					// iterations will cover this generation.
					continue
				}
				want := v.([seedRoots]int64)
				for _, row := range resp.Rows {
					if row.Subgraphs != want[row.Root] {
						failed.Add(1)
						t.Errorf("client %d req %d: STALE ROW root %d: %d subgraphs, generation %s computes %d",
							c, i, row.Root, row.Subgraphs, resp.Fingerprint, want[row.Root])
					}
				}
				checked.Add(1)
			}
		}(c)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d consistency violations under ingest load", failed.Load())
	}
	if checked.Load() == 0 {
		t.Fatal("no response was checked against the oracle")
	}
	t.Logf("checked %d/%d responses against the oracle", checked.Load(), clients*perClient)

	waitForGoroutineBaseline(t, baseline)
}

// waitForGoroutineBaseline fails the test if the goroutine count does
// not return to (near) its pre-test baseline — a leak in the serve or
// coalescing path.
func waitForGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
