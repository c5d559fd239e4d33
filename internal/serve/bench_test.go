package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
)

// benchServer builds the daemon over the synthetic publication network
// with the given row-cache size and returns (server, handler, request
// body for an 8-root batch).
func benchServer(tb testing.TB, rowCache int) (*Server, http.Handler, []byte) {
	tb.Helper()
	cfg := datagen.DefaultPublicationConfig()
	cfg.Institutions = 40
	cfg.Conferences = datagen.DefaultConferences[:3]
	cfg.Years = []int{2010, 2011, 2012, 2013}
	cfg.PapersPerConfYear = 25
	cfg.ExternalPapers = 400
	pub, err := datagen.GeneratePublication(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := core.NewExtractor(pub.Graph, core.Options{MaxEdges: 3, MaskRootLabel: true})
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(ex, Config{RowCache: rowCache})

	roots := make([]int64, 8)
	stride := pub.Graph.NumNodes() / len(roots)
	for i := range roots {
		roots[i] = int64(i * stride)
	}
	body, err := json.Marshal(FeaturesRequest{Roots: roots})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, srv.Handler(), body
}

func doBench(tb testing.TB, handler http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/features", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("request failed: %d %s", rec.Code, rec.Body)
	}
	return rec
}

// BenchmarkServeRequest measures the full daemon request path —
// admission, breaker, pooled extraction, flag mapping, JSON encoding —
// for a small batch of roots over the synthetic publication network,
// with the feature-row cache DISABLED so every iteration pays for
// extraction. This is the cold per-request cost a client of POST
// /v1/features pays; the allocation count is the tracked regression
// metric for the reuse-everything extraction discipline (a cold path
// rebuilds O(V+E) worker state per request and shows up here as
// thousands of allocs).
func BenchmarkServeRequest(b *testing.B) {
	srv, handler, body := benchServer(b, -1)

	// Warm the extractor's vocabulary and worker pool out of band.
	doBench(b, handler, body)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doBench(b, handler, body)
	}
	b.ReportMetric(float64(b.N*8)/b.Elapsed().Seconds(), "rows/sec")

	// Census roots on the graph used above may be slow under bench -race;
	// assert the daemon stayed healthy so a tripped breaker can't
	// silently skew timings.
	if got := srv.Breaker().State(); got != BreakerClosed {
		b.Fatalf("breaker ended %v, want closed", got)
	}
}

// BenchmarkServeRequestWarm measures the cache-hit fast path: the same
// 8-root batch over and over with the feature-row cache enabled, so
// after the first request every row is expanded from a cached compact
// row with no extraction, no admission, no breaker. This is the
// sub-100µs serve path the cache exists for.
func BenchmarkServeRequestWarm(b *testing.B) {
	_, handler, body := benchServer(b, 0) // 0 = DefaultRowCache

	// First request populates the cache; everything after is warm.
	doBench(b, handler, body)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doBench(b, handler, body)
	}
	b.ReportMetric(float64(b.N*8)/b.Elapsed().Seconds(), "rows/sec")
}

// TestWarmServeAllocBudget pins the allocation budget of the warm fast
// path: a warm 8-root request must stay under 100 allocations end to
// end (handler dispatch, cache lookups, row expansion, recorder
// writes included). Run by `make bench-smoke`; a regression here means
// per-request garbage crept back into the hit path.
func TestWarmServeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation accounting")
	}
	_, handler, body := benchServer(t, 0)
	doBench(t, handler, body) // populate the cache

	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		doBench(t, handler, body)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("warm 8-root request: %.1f allocs", perReq)
	if perReq > 100 {
		t.Fatalf("warm 8-root request allocates %.1f objects, budget is 100", perReq)
	}
}

// TestRowCacheBytesBudget pins what the compact row form saves: with a
// graph's roots cached, the cache's bytes gauge must stay under a
// quarter of those rows' JSON length, the form the cache held before
// rows were interned. Byte counts are deterministic, so `make
// bench-smoke` runs this beside the alloc gates.
func TestRowCacheBytesBudget(t *testing.T) {
	hier, err := datagen.GenerateHierarchical(datagen.DefaultHierarchicalConfig(2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts core.Options
		step int // cache every step-th root
	}{
		{"testGraph(30)", testGraph(t, 30), core.Options{MaxEdges: 3}, 1},
		{"hierarchical-2k", hier.Graph, core.Options{MaxEdges: 3, MaxDegree: 64, MaskRootLabel: true}, 8},
	} {
		ex, err := core.NewExtractor(tc.g, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(ex, Config{})
		var rows, jsonBytes int
		for root := 0; root < tc.g.NumNodes(); root += tc.step {
			w := doJSON(t, s, http.MethodPost, "/v1/features", fmt.Sprintf(`{"roots":[%d]}`, root), nil)
			var resp struct {
				Rows []json.RawMessage `json:"rows"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Rows) != 1 {
				t.Fatalf("%s root %d: %d rows (%v): %s", tc.name, root, len(resp.Rows), err, w.Body)
			}
			rows++
			jsonBytes += len(resp.Rows[0])
		}
		st := s.cacheStats()
		if st.Size != rows {
			t.Fatalf("%s: %d rows cached of %d served", tc.name, st.Size, rows)
		}
		ratio := float64(st.Bytes) / float64(jsonBytes)
		t.Logf("%s: %d rows, %.0f B/row cached vs %.0f B/row JSON (%.3f), %d vocabulary keys",
			tc.name, rows, float64(st.Bytes)/float64(rows), float64(jsonBytes)/float64(rows), ratio, st.VocabKeys)
		if ratio > 0.25 {
			t.Errorf("%s: cached rows take %.3f of their JSON length, budget is 0.25", tc.name, ratio)
		}
	}
}
