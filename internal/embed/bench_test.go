package embed

// Tracked embedding benchmarks (`make bench-all`, exercised briefly by
// `make bench-smoke`; the embed suite of cmd/bench runs the same
// workloads and writes BENCH_embed.json). Sub-benchmarks sweep the worker count so scaling
// and allocation discipline are visible in one -bench run.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hsgf/internal/graph"
)

// benchEmbedGraph is a deterministic sparse random graph sized so one
// walk corpus fits comfortably in cache-unfriendly territory.
func benchEmbedGraph(n, avgDeg int) *graph.Graph {
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet("n"))
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i], _ = b.AddNode("n")
	}
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < n*avgDeg/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(ids[u], ids[v])
		}
	}
	return b.MustBuild()
}

func benchWorkerCounts() []int {
	return []int{1, 2, 4}
}

func BenchmarkUniformWalks(b *testing.B) {
	g := benchEmbedGraph(2000, 8)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := WalkConfig{WalksPerNode: 5, WalkLength: 40, Workers: workers}
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := UniformWalks(context.Background(), g, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumNodes()*cfg.WalksPerNode*b.N)/b.Elapsed().Seconds(), "walks/sec")
		})
	}
}

func BenchmarkBiasedWalks(b *testing.B) {
	g := benchEmbedGraph(2000, 8)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := WalkConfig{WalksPerNode: 5, WalkLength: 40, ReturnP: 0.5, InOutQ: 2, Workers: workers}
			rng := rand.New(rand.NewSource(7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BiasedWalks(context.Background(), g, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumNodes()*cfg.WalksPerNode*b.N)/b.Elapsed().Seconds(), "walks/sec")
		})
	}
}

// sgnsUpdates counts the nominal pair updates (positive + negative
// samples per skip-gram pair) one pass over the corpus performs.
func sgnsUpdates(walks [][]graph.NodeID, window, negatives, epochs int) int64 {
	var pairs int64
	for _, w := range walks {
		for i := range w {
			lo := i - window
			if lo < 0 {
				lo = 0
			}
			hi := i + window
			if hi >= len(w) {
				hi = len(w) - 1
			}
			pairs += int64(hi - lo)
		}
	}
	return pairs * int64(1+negatives) * int64(epochs)
}

func BenchmarkTrainSGNS(b *testing.B) {
	g := benchEmbedGraph(2000, 8)
	walks, err := UniformWalks(context.Background(), g,
		WalkConfig{WalksPerNode: 5, WalkLength: 40, Workers: 1}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := SGNSConfig{Dim: 64, Window: 5, Negatives: 5, Epochs: 1, Workers: workers}
			updates := sgnsUpdates(walks, cfg.Window, cfg.Negatives, cfg.Epochs)
			rng := rand.New(rand.NewSource(8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TrainSGNS(context.Background(), g, walks, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(updates*int64(b.N))/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}

func BenchmarkLINE(b *testing.B) {
	g := benchEmbedGraph(2000, 8)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := LINEConfig{Dim: 32, Negatives: 5, Samples: 10 * g.NumEdges(), Workers: workers}
			updates := int64(cfg.Samples) * int64(1+cfg.Negatives) * 2 // both orders
			rng := rand.New(rand.NewSource(9))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := LINE(context.Background(), g, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(updates*int64(b.N))/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}
