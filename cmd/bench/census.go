package main

// The census suite: single-root census, parallel full-sample
// extraction, and the serving daemon's request path over the bench
// graph. Each row reports ns/op, allocs and bytes per op, plus the
// derived ns/root, allocs/root and subgraphs/sec the census work is
// tracked on. DESIGN.md §8 records the pre-optimisation baseline.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/serve"
)

// censusRow is one benchmark's row in BENCH_census.json.
type censusRow struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// P50NsPerOp / P99NsPerOp are per-iteration latency percentiles,
	// reported by the serve benchmarks where tail latency is the tracked
	// contract (the warm path targets p99 < 100µs, not just the mean).
	P50NsPerOp float64 `json:"p50_ns_per_op,omitempty"`
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	// CacheBytesPerRow is the row cache's bytes gauge per cached row
	// after the warm run: what one cached compact row costs.
	CacheBytesPerRow float64 `json:"cache_bytes_per_row,omitempty"`
	Roots            int     `json:"roots_per_op"`
	NsPerRoot        float64 `json:"ns_per_root"`
	AllocsPerRoot    float64 `json:"allocs_per_root"`
	SubgraphsPerSec  float64 `json:"subgraphs_per_sec,omitempty"`
}

type censusReport struct {
	header
	Nodes int `json:"graph_nodes"`
	Edges int `json:"graph_edges"`
	// BytesPerEdge is the bench graph's binary snapshot payload size
	// divided by its edge count — the storage density the scale ladder
	// tracks, pinned here on the census workload too.
	BytesPerEdge float64     `json:"bytes_per_edge"`
	Results      []censusRow `json:"results"`
}

func newCensusRow(name string, roots int, r testing.BenchmarkResult, subgraphs int64) censusRow {
	perOp := float64(r.NsPerOp())
	out := censusRow{
		Name:          name,
		Iterations:    r.N,
		NsPerOp:       perOp,
		AllocsPerOp:   float64(r.AllocsPerOp()),
		BytesPerOp:    float64(r.AllocedBytesPerOp()),
		Roots:         roots,
		NsPerRoot:     perOp / float64(roots),
		AllocsPerRoot: float64(r.AllocsPerOp()) / float64(roots),
	}
	if subgraphs > 0 && r.T > 0 {
		out.SubgraphsPerSec = float64(subgraphs) / r.T.Seconds()
	}
	return out
}

// runCensus benchmarks g with testing.Benchmark at the given benchtime
// and the serve path for serveSeconds per cache regime.
func runCensus(g *graph.Graph, bt string, serveSeconds float64) (report, error) {
	if err := benchtime(bt); err != nil {
		return nil, err
	}
	rep := &censusReport{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if payload, err := graph.EncodeBinary(g, 0); err == nil && g.NumEdges() > 0 {
		rep.BytesPerEdge = float64(len(payload)) / float64(g.NumEdges())
	}
	// Each workload gets its own extractor, so no workload inherits
	// another's warmed worker pools.
	newExtractor := func() (*core.Extractor, error) {
		return core.NewExtractor(g, core.Options{MaxEdges: 3, MaskRootLabel: true})
	}

	// --- census_root: steady-state single-root census (serving row cost).
	{
		ex, err := newExtractor()
		if err != nil {
			return nil, err
		}
		roots := sampleRoots(g, 64)
		for _, r := range roots {
			ex.Census(r)
		}
		var subgraphs int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			subgraphs = 0
			for i := 0; i < b.N; i++ {
				subgraphs += ex.Census(roots[i%len(roots)]).Subgraphs
			}
		})
		rep.Results = append(rep.Results, newCensusRow("census_root", 1, r, subgraphs))
	}

	// --- census_all: parallel full-sample extraction (pipeline workload).
	{
		ex, err := newExtractor()
		if err != nil {
			return nil, err
		}
		roots := sampleRoots(g, 256)
		ex.CensusAll(roots[:8], 0)
		var subgraphs int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			subgraphs = 0
			for i := 0; i < b.N; i++ {
				for _, c := range ex.CensusAll(roots, 0) {
					subgraphs += c.Subgraphs
				}
			}
		})
		rep.Results = append(rep.Results, newCensusRow("census_all", len(roots), r, subgraphs))
	}

	// --- serve benchmarks: the daemon's POST /v1/features path end to
	// end, in three cache regimes over the same 8-root batch:
	//   serve_request       row cache disabled — every request extracts
	//                       (the historical trajectory metric);
	//   serve_request_warm  cache enabled and pre-warmed — every row is a
	//                       cache hit expanded from its compact form (the
	//                       <100µs path), and the row reports the cache's
	//                       bytes per row;
	//   serve_request_cold  cache enabled, every request carries a fresh
	//                       root_budget so its limits fingerprint — and
	//                       with it the cache key — never repeats: the
	//                       miss path including cache bookkeeping.
	ex, err := newExtractor()
	if err != nil {
		return nil, err
	}
	ids := sampleRoots(g, 8)
	roots := make([]int64, len(ids))
	for i, r := range ids {
		roots[i] = int64(r)
	}
	fixedBody, err := json.Marshal(serve.FeaturesRequest{Roots: roots})
	if err != nil {
		return nil, err
	}
	fixed := func(int) []byte { return fixedBody }
	// A per-iteration budget far above the real census size keeps the
	// rows complete (never truncated) while making every cache key
	// unique, so each request is a full miss.
	unique := func(i int) []byte {
		b, _ := json.Marshal(serve.FeaturesRequest{Roots: roots, RootBudget: int64(1)<<40 + int64(i)})
		return b
	}
	for _, bench := range []struct {
		name  string
		cfg   serve.Config
		body  func(i int) []byte
		gauge bool // report the row cache's bytes per row
	}{
		{name: "serve_request", cfg: serve.Config{RowCache: -1}, body: fixed},
		{name: "serve_request_warm", cfg: serve.Config{}, body: fixed, gauge: true},
		{name: "serve_request_cold", cfg: serve.Config{}, body: unique},
	} {
		h := serve.NewServer(ex, bench.cfg).Handler()
		r, err := serveLatency(h, serveSeconds, bench.body)
		if err != nil {
			return nil, err
		}
		row := newCensusRow(bench.name, len(roots), r.BenchmarkResult, 0)
		row.P50NsPerOp = float64(r.p50.Nanoseconds())
		row.P99NsPerOp = float64(r.p99.Nanoseconds())
		if bench.gauge {
			if row.CacheBytesPerRow, err = cacheBytesPerRow(h); err != nil {
				return nil, err
			}
		}
		rep.Results = append(rep.Results, row)
	}
	return rep, nil
}

// cacheBytesPerRow reads the row cache's gauges from h's /debug/stats:
// compact row bytes held per cached row.
func cacheBytesPerRow(h http.Handler) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/stats", nil))
	var st serve.StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("serve /debug/stats: %w", err)
	}
	if st.Cache == nil || st.Cache.Size == 0 {
		return 0, fmt.Errorf("serve /debug/stats: no cached rows after the warm run")
	}
	return float64(st.Cache.Bytes) / float64(st.Cache.Size), nil
}
