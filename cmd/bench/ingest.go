package main

// The ingest suite boots a WAL-backed ingest engine over the bench
// graph and drives a deterministic stream of mutation batches through
// the full durable path — validate, WAL fsync, incremental dirty-ball
// recompute, publish. The tracked numbers are mutations/sec and
// batches/sec of sustained durable throughput, the ingest-to-serve
// latency distribution (p50/p99 from Apply entry to published state —
// what a client waits between ack and readable freshness), the
// dirty-set sizes that make incremental maintenance pay, and the
// measured speedup of a dirty-ball recompute over a from-scratch
// CensusAll of the whole graph. The same stream then runs through the
// router's sequenced fan-out over an in-process follower fleet.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/router"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

const (
	ingestEmax         = 2  // maximum edges per subgraph
	ingestCompactEvery = 64 // WAL fold interval in batches
	ingestFleetShards  = 2  // shards in the fleet-mode run
)

type ingestReport struct {
	header
	Nodes    int `json:"graph_nodes"`
	Edges    int `json:"graph_edges"`
	MaxEdges int `json:"emax"`

	Batches         int     `json:"batches"`
	Mutations       int     `json:"mutations"`
	BatchesPerSec   float64 `json:"batches_per_sec"`
	MutationsPerSec float64 `json:"mutations_per_sec"`

	// Ingest-to-serve: Apply entry to published (serving) state,
	// including the WAL fsync and the incremental recompute.
	IngestToServeP50MS float64 `json:"ingest_to_serve_p50_ms"`
	IngestToServeP99MS float64 `json:"ingest_to_serve_p99_ms"`

	MeanDirtyRoots float64 `json:"mean_dirty_roots"`
	MaxDirtyRoots  int     `json:"max_dirty_roots"`
	// MeanDirtyFrac is mean dirty roots over graph size — the fraction of
	// census work a full rebuild would waste per batch.
	MeanDirtyFrac float64 `json:"mean_dirty_frac"`

	Compactions uint64 `json:"compactions"`
	WALBytes    int64  `json:"wal_bytes"`

	// FullRebuildMS times one from-scratch CensusAll over every root on
	// the final graph; SpeedupVsRebuild is that divided by the mean
	// incremental apply time (how much the delta path saves per batch).
	FullRebuildMS    float64 `json:"full_rebuild_ms"`
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`

	// Fleet is the same durable path through the full sequenced fan-out:
	// router sequencer WAL fsync, per-shard sub-batch fan-out, and every
	// replica's own WAL fsync + incremental recompute before the ack.
	Fleet *fleetReport `json:"fleet"`
}

// fleetReport tracks fleet-mode ingest: client-observed durable
// throughput and ack latency through hsgf-router's sequenced fan-out
// over an in-process follower fleet.
type fleetReport struct {
	Shards          int     `json:"shards"`
	Replicas        int     `json:"replicas_per_shard"`
	Batches         int     `json:"batches"`
	Mutations       int     `json:"mutations"`
	BatchesPerSec   float64 `json:"batches_per_sec"`
	MutationsPerSec float64 `json:"mutations_per_sec"`
	AckP50MS        float64 `json:"ack_p50_ms"`
	AckP99MS        float64 `json:"ack_p99_ms"`
}

// nextBatch builds a small valid batch against g: one new edge between
// previously unconnected nodes, never one already in added (which it
// extends), one relabel, and a new node every 8th batch — the
// steady-state shape of a growing information network.
func nextBatch(rng *rand.Rand, g *graph.Graph, added map[[2]graph.NodeID]bool, k int) []graph.Mutation {
	labels := g.Alphabet().Names()
	var muts []graph.Mutation
	if k%8 == 0 {
		muts = append(muts, graph.Mutation{Op: graph.OpAddNode, Label: labels[rng.Intn(len(labels))]})
	}
	for {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if u > v {
			u, v = v, u
		}
		if u != v && !g.HasEdge(u, v) && !added[[2]graph.NodeID{u, v}] {
			added[[2]graph.NodeID{u, v}] = true
			muts = append(muts, graph.Mutation{Op: graph.OpAddEdge, U: u, V: v})
			break
		}
	}
	muts = append(muts, graph.Mutation{
		Op: graph.OpRelabel, U: graph.NodeID(rng.Intn(g.NumNodes())),
		Label: labels[rng.Intn(len(labels))],
	})
	return muts
}

// runFleetIngest boots an in-process fleet — nShards follower ingest
// daemons behind httptest listeners, fronted by a sequencing router,
// their stores and the sequencer log under dir — and drives batches
// through POST /v1/ingest, measuring what a client sees: durable, fully
// fan-out-confirmed acks.
func runFleetIngest(dir string, g *graph.Graph, opts core.Options, nShards, batches int) (*fleetReport, error) {
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: nShards, HaloDepth: opts.MaxEdges})
	if err != nil {
		return nil, err
	}
	var backends []*httptest.Server
	defer func() {
		for _, ts := range backends {
			ts.Close()
		}
	}()
	urls := make([][]string, nShards)
	var engines []*ingest.Engine
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for _, p := range plans {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", p.Shard)), store.Options{})
		if err != nil {
			return nil, err
		}
		seed := p.Graph
		eng, err := ingest.Open(ingest.Config{Store: st, Opts: opts},
			func() (*graph.Graph, error) { return seed, nil })
		if err != nil {
			return nil, err
		}
		engines = append(engines, eng)
		_, ex, fs, gen, _ := eng.State()
		ss := serve.NewServerSnapshot(&serve.Snapshot{Extractor: ex, Features: fs, Generation: gen, Source: "ingest"}, serve.Config{})
		ss.SetIngestor(eng, "ingest")
		ss.SetFleetFollower(true)
		ts := httptest.NewServer(ss.Handler())
		backends = append(backends, ts)
		urls[p.Shard] = []string{ts.URL}
	}
	rt, err := router.New(router.Config{
		Manifest:    router.BuildManifest(g.NumNodes(), opts.MaxEdges, plans),
		Shards:      urls,
		SeqLogPath:  filepath.Join(dir, "seq.wal"),
		IngestGraph: g,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	rep := &fleetReport{Shards: nShards, Replicas: 1, Batches: batches}
	rng := rand.New(rand.NewSource(2))
	added := make(map[[2]graph.NodeID]bool)
	lat := make([]time.Duration, 0, batches)
	start := time.Now()
	for k := 0; k < batches; k++ {
		muts := nextBatch(rng, g, added, k)
		rep.Mutations += len(muts)
		req := serve.IngestRequest{BatchID: fmt.Sprintf("fleet-bench-%d", k)}
		for _, m := range muts {
			req.Mutations = append(req.Mutations, serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		resp, err := http.Post(front.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("fleet batch %d: %d %s", k, resp.StatusCode, raw)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)

	rep.BatchesPerSec = float64(batches) / elapsed.Seconds()
	rep.MutationsPerSec = float64(rep.Mutations) / elapsed.Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.AckP50MS = float64(lat[len(lat)/2].Microseconds()) / 1000
	rep.AckP99MS = float64(lat[(len(lat)*99)/100].Microseconds()) / 1000
	return rep, nil
}

// runIngest applies batches mutation batches to one engine over g,
// then fleetBatches through the fleet.
func runIngest(g *graph.Graph, batches, fleetBatches int) (report, error) {
	dir, err := os.MkdirTemp("", "bench-ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "engine"), store.Options{})
	if err != nil {
		return nil, err
	}
	opts := core.Options{MaxEdges: ingestEmax, MaskRootLabel: true}
	eng, err := ingest.Open(ingest.Config{Store: st, Opts: opts, CompactEvery: ingestCompactEvery},
		func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	rep := &ingestReport{
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		MaxEdges: ingestEmax,
		Batches:  batches,
	}

	rng := rand.New(rand.NewSource(1))
	added := make(map[[2]graph.NodeID]bool)
	ctx := context.Background()
	lat := make([]time.Duration, 0, batches)
	var totalDirty, totalMuts int
	start := time.Now()
	for k := 0; k < batches; k++ {
		cur, _, _, _, _ := eng.State()
		muts := nextBatch(rng, cur, added, k)
		res, err := eng.Apply(ctx, fmt.Sprintf("bench-%d", k), muts)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", k, err)
		}
		lat = append(lat, res.Elapsed)
		totalDirty += len(res.DirtyRoots)
		totalMuts += len(muts)
		if len(res.DirtyRoots) > rep.MaxDirtyRoots {
			rep.MaxDirtyRoots = len(res.DirtyRoots)
		}
	}
	elapsed := time.Since(start)

	final, _, _, _, _ := eng.State()
	rep.Mutations = totalMuts
	rep.BatchesPerSec = float64(batches) / elapsed.Seconds()
	rep.MutationsPerSec = float64(totalMuts) / elapsed.Seconds()
	rep.MeanDirtyRoots = float64(totalDirty) / float64(batches)
	rep.MeanDirtyFrac = rep.MeanDirtyRoots / float64(final.NumNodes())
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.IngestToServeP50MS = float64(lat[len(lat)/2].Microseconds()) / 1000
	rep.IngestToServeP99MS = float64(lat[(len(lat)*99)/100].Microseconds()) / 1000
	stats := eng.Stats()
	rep.Compactions = stats.Compactions
	rep.WALBytes = stats.WALBytes

	// The counterfactual: what every batch would cost without delta
	// maintenance — a full CensusAll over the final graph.
	ex, err := core.NewExtractor(final, opts)
	if err != nil {
		return nil, err
	}
	roots := make([]graph.NodeID, final.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	rebuildStart := time.Now()
	ex.CensusAll(roots, 0)
	rebuild := time.Since(rebuildStart)
	rep.FullRebuildMS = float64(rebuild.Microseconds()) / 1000
	meanApply := elapsed / time.Duration(batches)
	if meanApply > 0 {
		rep.SpeedupVsRebuild = float64(rebuild) / float64(meanApply)
	}

	rep.Fleet, err = runFleetIngest(filepath.Join(dir, "fleet"), g, opts, ingestFleetShards, fleetBatches)
	if err != nil {
		return nil, fmt.Errorf("fleet bench: %w", err)
	}
	return rep, nil
}
