package main

// The embed suite: sharded walk generation (uniform and node2vec-biased)
// and Hogwild SGNS / LINE training over the bench graph. Every workload
// is swept over a ladder of worker counts, so the file records parallel
// scaling rows (walks/sec, updates/sec, ns/update, allocs/op, speedup
// vs Workers=1) next to the header's gomaxprocs and num_cpu — a speedup
// table is only readable alongside the core count that produced it.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hsgf/internal/embed"
	"hsgf/internal/graph"
)

// embedRow is one (benchmark, worker count) row in BENCH_embed.json.
type embedRow struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	WalksPerSec   float64 `json:"walks_per_sec,omitempty"`
	UpdatesPerSec float64 `json:"updates_per_sec,omitempty"`
	NsPerUpdate   float64 `json:"ns_per_update,omitempty"`
	// SpeedupVsSerial is this row's throughput over the Workers=1 row
	// of the same benchmark (1.0 for the serial row itself).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

type embedReport struct {
	header
	Nodes   int        `json:"graph_nodes"`
	Edges   int        `json:"graph_edges"`
	Results []embedRow `json:"results"`
}

// workerLadder is the scaling sweep: 1, 2, 4 always (so the tracked
// file carries comparable rows across machines), 8 where the hardware
// can actually run it.
func workerLadder() []int {
	ladder := []int{1, 2, 4}
	if runtime.NumCPU() >= 8 {
		ladder = append(ladder, 8)
	}
	return ladder
}

// sgnsUpdates counts the nominal pair updates (positive + negative
// samples per skip-gram pair) one corpus pass performs.
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

func newEmbedRow(name string, workers int, r testing.BenchmarkResult, work int64, unitWalks bool) embedRow {
	out := embedRow{
		Name:        name,
		Workers:     workers,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
	if r.T > 0 && work > 0 {
		perSec := float64(work) * float64(r.N) / r.T.Seconds()
		if unitWalks {
			out.WalksPerSec = perSec
		} else {
			out.UpdatesPerSec = perSec
			out.NsPerUpdate = float64(r.NsPerOp()) / float64(work)
		}
	}
	return out
}

// runEmbed benchmarks every workload on g at every worker count with
// testing.Benchmark at the given benchtime; wcfg sets the corpus shape
// (walks per node, walk length) the walk and SGNS workloads share.
func runEmbed(g *graph.Graph, bt string, wcfg embed.WalkConfig) (report, error) {
	if err := benchtime(bt); err != nil {
		return nil, err
	}
	rep := &embedReport{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	ctx := context.Background()
	// sweep benchmarks one workload at every ladder worker count; op
	// runs it once with the given worker count and rng.
	sweep := func(name string, seed, work int64, unitWalks bool, op func(workers int, rng *rand.Rand) error) error {
		for _, workers := range workerLadder() {
			rng := rand.New(rand.NewSource(seed))
			var opErr error
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N && opErr == nil; i++ {
					opErr = op(workers, rng)
				}
			})
			if opErr != nil {
				return opErr
			}
			rep.Results = append(rep.Results, newEmbedRow(name, workers, r, work, unitWalks))
		}
		return nil
	}

	// --- uniform_walks / biased_walks: sharded corpus generation.
	totalWalks := int64(g.NumNodes() * wcfg.WalksPerNode)
	if err := sweep("uniform_walks", 7, totalWalks, true, func(workers int, rng *rand.Rand) error {
		cfg := wcfg
		cfg.Workers = workers
		_, err := embed.UniformWalks(ctx, g, cfg, rng)
		return err
	}); err != nil {
		return nil, err
	}
	if err := sweep("biased_walks", 7, totalWalks, true, func(workers int, rng *rand.Rand) error {
		cfg := wcfg
		cfg.ReturnP, cfg.InOutQ = 0.5, 2
		cfg.Workers = workers
		_, err := embed.BiasedWalks(ctx, g, cfg, rng)
		return err
	}); err != nil {
		return nil, err
	}

	// --- sgns: Hogwild skip-gram training over a fixed corpus.
	walks, err := embed.UniformWalks(ctx, g, wcfg, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, err
	}
	scfg := embed.SGNSConfig{Dim: 32, Window: 5, Negatives: 5, Epochs: 1}
	updates := sgnsUpdates(walks, scfg.Window, scfg.Negatives, scfg.Epochs)
	if err := sweep("sgns", 8, updates, false, func(workers int, rng *rand.Rand) error {
		cfg := scfg
		cfg.Workers = workers
		_, err := embed.TrainSGNS(ctx, g, walks, cfg, rng)
		return err
	}); err != nil {
		return nil, err
	}

	// --- line: Hogwild edge-sampling training, both proximity orders.
	lcfg := embed.LINEConfig{Dim: 16, Negatives: 5, Samples: 20 * g.NumEdges()}
	lineUpdates := int64(lcfg.Samples) * int64(1+lcfg.Negatives) * 2
	if err := sweep("line", 9, lineUpdates, false, func(workers int, rng *rand.Rand) error {
		cfg := lcfg
		cfg.Workers = workers
		_, err := embed.LINE(ctx, g, cfg, rng)
		return err
	}); err != nil {
		return nil, err
	}

	// Divide every row's throughput by its benchmark's Workers=1 row.
	serial := map[string]float64{}
	for _, r := range rep.Results {
		if r.Workers == 1 {
			serial[r.Name] = r.WalksPerSec + r.UpdatesPerSec
		}
	}
	for i := range rep.Results {
		if base := serial[rep.Results[i].Name]; base > 0 {
			rep.Results[i].SpeedupVsSerial = (rep.Results[i].WalksPerSec + rep.Results[i].UpdatesPerSec) / base
		}
	}
	return rep, nil
}
