// Tracked census micro-benchmarks over the synthetic publication
// network (the paper's MAG stand-in, DESIGN.md §1). The census suite of
// cmd/bench (`make bench`, BENCH_census.json) runs the same workloads on
// the same graph: BenchmarkCensusRoot measures the single-root hot path
// a serving daemon pays per request row, BenchmarkCensusAll the
// parallel full-network extraction of the reproduction pipeline. Both report allocations — the allocs/root
// trajectory is the tentpole metric of the zero-allocation census work.
package core_test

import (
	"sync/atomic"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
)

// benchPublication builds a reduced but structurally faithful
// publication network: same label connectivity and skew as the default
// configuration, scaled so a benchmark iteration stays in milliseconds.
func benchPublication(tb testing.TB) *graph.Graph {
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
	return pub.Graph
}

// benchRoots samples roots evenly across the node ID space, so the mix
// of label classes (institutions, authors, papers, venues, ...) matches
// the network's composition rather than any one class.
func benchRoots(g *graph.Graph, n int) []graph.NodeID {
	if n > g.NumNodes() {
		n = g.NumNodes()
	}
	roots := make([]graph.NodeID, n)
	stride := g.NumNodes() / n
	for i := range roots {
		roots[i] = graph.NodeID(i * stride)
	}
	return roots
}

func benchExtractor(tb testing.TB, g *graph.Graph, opts core.Options) *core.Extractor {
	tb.Helper()
	ex, err := core.NewExtractor(g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return ex
}

// BenchmarkCensusRoot measures the steady-state single-root census: the
// per-row cost of a serving-daemon request. One op = one root.
func BenchmarkCensusRoot(b *testing.B) {
	g := benchPublication(b)
	ex := benchExtractor(b, g, core.Options{MaxEdges: 3, MaskRootLabel: true})
	roots := benchRoots(g, 64)
	// Warm the vocabulary (and, post-pooling, the worker pool) so the
	// loop measures steady state, not first-sight materialisation.
	var warm int64
	for _, r := range roots {
		warm += ex.Census(r).Subgraphs
	}
	if warm == 0 {
		b.Fatal("benchmark roots produced no subgraphs")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var subgraphs int64
	for i := 0; i < b.N; i++ {
		subgraphs += ex.Census(roots[i%len(roots)]).Subgraphs
	}
	b.ReportMetric(float64(subgraphs)/b.Elapsed().Seconds(), "subgraphs/sec")
}

// BenchmarkCensusAll measures the parallel full-sample extraction (the
// reproduction pipeline's workload). One op = len(roots) roots.
func BenchmarkCensusAll(b *testing.B) {
	g := benchPublication(b)
	ex := benchExtractor(b, g, core.Options{MaxEdges: 3, MaskRootLabel: true})
	roots := benchRoots(g, 256)
	for _, c := range ex.CensusAll(roots[:8], 0) {
		_ = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	var subgraphs atomic.Int64
	for i := 0; i < b.N; i++ {
		for _, c := range ex.CensusAll(roots, 0) {
			subgraphs.Add(c.Subgraphs)
		}
	}
	b.ReportMetric(float64(subgraphs.Load())/b.Elapsed().Seconds(), "subgraphs/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(roots)), "ns/root")
}

// BenchmarkCensusAllLPT is BenchmarkCensusAll with longest-processing-
// time root ordering, the skew-mitigation knob for heavy-tailed degree
// distributions.
func BenchmarkCensusAllLPT(b *testing.B) {
	g := benchPublication(b)
	ex := benchExtractor(b, g, core.Options{MaxEdges: 3, MaskRootLabel: true, LPTRootOrder: true})
	roots := benchRoots(g, 256)
	for _, c := range ex.CensusAll(roots[:8], 0) {
		_ = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.CensusAll(roots, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(roots)), "ns/root")
}
