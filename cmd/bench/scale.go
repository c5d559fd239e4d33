package main

// The scale suite runs the ladder: at each rung it generates a
// hierarchical community network, builds the CSR graph, round-trips it
// through both snapshot formats, and measures what production cares
// about at that scale — build time, snapshot encode/decode time for
// binary vs TSV, bytes per edge, the store write's time and allocation,
// the router's write-side graph, census throughput, serve-path p50/p99,
// and peak RSS — one JSON object per rung.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/serve"
	"hsgf/internal/store"
	"hsgf/internal/sysres"
)

const (
	scaleEmax = 3  // census max edges
	scaleDmax = 64 // census degree cutoff
)

// rung is one ladder step's measurements.
type rung struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Labels int `json:"labels"`

	GenerateSeconds float64 `json:"generate_seconds"`
	BuildSeconds    float64 `json:"build_seconds"`

	TSVEncodeSeconds float64 `json:"tsv_encode_seconds"`
	TSVDecodeSeconds float64 `json:"tsv_decode_seconds"`
	TSVBytes         int     `json:"tsv_bytes"`
	TSVBytesPerEdge  float64 `json:"tsv_bytes_per_edge"`

	BinEncodeSeconds float64 `json:"bin_encode_seconds"`
	BinDecodeSeconds float64 `json:"bin_decode_seconds"`
	BinBytes         int     `json:"bin_bytes"`
	BinBytesPerEdge  float64 `json:"bin_bytes_per_edge"`

	// BinLoadSpeedup is TSV decode time over binary decode time — the
	// ladder's headline ratio (the binary boot path must widen this
	// gap as rungs grow, >= 10x at the top rung: 16.5x at 10^6 nodes on
	// a 2-vCPU VM, 9.4x before decode validated the adjacency on both
	// cores).
	BinLoadSpeedup float64 `json:"bin_load_speedup"`

	// StoreWriteSeconds and StoreWriteAllocBytes are one
	// SaveGraphSnapshots of the rung's graph: its time, and the bytes
	// allocated meanwhile (the runtime.MemStats.TotalAlloc delta). The
	// write streams the CSR into the file, so the allocation does not
	// grow with the graph.
	StoreWriteSeconds    float64 `json:"store_write_seconds"`
	StoreWriteAllocBytes uint64  `json:"store_write_alloc_bytes"`

	// StoreLoadSeconds is the full production boot path: newest
	// generation through the store's mapped loader, SHA-256
	// verification included. Mmapped reports whether the zero-copy
	// path engaged.
	StoreLoadSeconds float64 `json:"store_load_seconds"`
	Mmapped          bool    `json:"mmapped"`

	// OverlayBuildSeconds and OverlayHeapBytes are the router's
	// write-side graph, the graph.Overlay it checks fleet batches
	// against, over the mapped graph: its build time and the live heap
	// it adds before any batch.
	OverlayBuildSeconds float64 `json:"overlay_build_seconds"`
	OverlayHeapBytes    int64   `json:"overlay_heap_bytes"`

	CensusRoots           int     `json:"census_roots"`
	CensusRootsPerSec     float64 `json:"census_roots_per_sec"`
	CensusSubgraphsPerSec float64 `json:"census_subgraphs_per_sec"`

	ServeRequests int     `json:"serve_requests"`
	ServeP50Ns    float64 `json:"serve_p50_ns"`
	ServeP99Ns    float64 `json:"serve_p99_ns"`

	MaxRSSBytes int64 `json:"max_rss_bytes"`
}

type scaleReport struct {
	header
	EMax  int    `json:"emax"`
	DMax  int    `json:"dmax"`
	Rungs []rung `json:"rungs"`
}

// runScale measures one rung per node count in sizes, timing the census
// over censusRoots roots and the serve path for serveSeconds.
func runScale(sizes []int, censusRoots int, serveSeconds float64) (report, error) {
	rep := &scaleReport{EMax: scaleEmax, DMax: scaleDmax}
	for _, n := range sizes {
		r, err := runRung(n, censusRoots, serveSeconds)
		if err != nil {
			return nil, fmt.Errorf("rung %d: %w", n, err)
		}
		rep.Rungs = append(rep.Rungs, r)
	}
	return rep, nil
}

func runRung(n, censusRoots int, serveSeconds float64) (rung, error) {
	var r rung
	r.Nodes = n

	// Generate (streaming emission into the builder) and Build are the
	// two halves of graph construction; the ladder times them apart so
	// a Build regression cannot hide inside generator noise.
	cfg := datagen.DefaultHierarchicalConfig(n)
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet(cfg.Labels...))
	t0 := time.Now()
	if _, err := datagen.PopulateHierarchical(cfg, b); err != nil {
		return r, err
	}
	r.GenerateSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	g, err := b.Build()
	if err != nil {
		return r, err
	}
	r.BuildSeconds = time.Since(t0).Seconds()
	r.Edges = g.NumEdges()
	r.Labels = g.NumLabels()

	// Snapshot formats, encode and decode. TSV decode includes the
	// Build it forces — that is its real boot cost; binary decode is
	// measured in aliasing mode, its real boot mode.
	var tsv bytes.Buffer
	t0 = time.Now()
	if err := graph.WriteTSV(&tsv, g); err != nil {
		return r, err
	}
	r.TSVEncodeSeconds = time.Since(t0).Seconds()
	r.TSVBytes = tsv.Len()
	r.TSVBytesPerEdge = float64(tsv.Len()) / float64(g.NumEdges())

	t0 = time.Now()
	if _, err := graph.ReadTSV(bytes.NewReader(tsv.Bytes())); err != nil {
		return r, err
	}
	r.TSVDecodeSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	payload, err := graph.EncodeBinary(g, 0)
	if err != nil {
		return r, err
	}
	r.BinEncodeSeconds = time.Since(t0).Seconds()
	r.BinBytes = len(payload)
	r.BinBytesPerEdge = float64(len(payload)) / float64(g.NumEdges())

	t0 = time.Now()
	_, aliased, err := graph.DecodeBinary(payload, true)
	if err != nil {
		return r, err
	}
	r.BinDecodeSeconds = time.Since(t0).Seconds()
	r.Mmapped = aliased
	if r.BinDecodeSeconds > 0 {
		r.BinLoadSpeedup = r.TSVDecodeSeconds / r.BinDecodeSeconds
	}

	// The production boot path: a store write, then the mapped load
	// with full envelope verification.
	dir, err := os.MkdirTemp("", "bench-scale-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return r, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	if _, err := core.SaveGraphSnapshots(st, g); err != nil {
		return r, err
	}
	r.StoreWriteSeconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	r.StoreWriteAllocBytes = after.TotalAlloc - before.TotalAlloc

	t0 = time.Now()
	mg, _, err := core.LoadGraphSnapshotAuto(st)
	if err != nil {
		return r, err
	}
	r.StoreLoadSeconds = time.Since(t0).Seconds()

	r.OverlayBuildSeconds, r.OverlayHeapBytes = overlayRung(mg)

	// Census throughput and the serve path both run over the mapped
	// graph — the ladder measures the deployment shape, not the
	// freshly-built one.
	opts := core.Options{MaxEdges: scaleEmax, MaskRootLabel: true, MaxDegree: scaleDmax}
	ex, err := core.NewExtractor(mg, opts)
	if err != nil {
		return r, err
	}
	roots := sampleRoots(mg, censusRoots)
	ex.CensusAll(roots[:min(8, len(roots))], 0) // warm worker pools
	t0 = time.Now()
	var subgraphs int64
	for _, c := range ex.CensusAll(roots, 0) {
		subgraphs += c.Subgraphs
	}
	censusT := time.Since(t0).Seconds()
	r.CensusRoots = len(roots)
	r.CensusRootsPerSec = float64(len(roots)) / censusT
	r.CensusSubgraphsPerSec = float64(subgraphs) / censusT

	// The serve path: 8-root batches with the row cache warm, the
	// production steady state.
	batch := make([]int64, 0, 8)
	for i := 0; i < 8 && i < len(roots); i++ {
		batch = append(batch, int64(roots[i]))
	}
	body, err := json.Marshal(serve.FeaturesRequest{Roots: batch})
	if err != nil {
		return r, err
	}
	res, err := serveLatency(serve.NewServer(ex, serve.Config{}).Handler(), serveSeconds, func(int) []byte { return body })
	if err != nil {
		return r, err
	}
	r.ServeRequests = res.N
	r.ServeP50Ns = float64(res.p50.Nanoseconds())
	r.ServeP99Ns = float64(res.p99.Nanoseconds())

	r.MaxRSSBytes = sysres.MaxRSSBytes()
	return r, nil
}

// overlayRung measures the router's write-side graph over g: the time
// to build it and the heap it holds once built.
func overlayRung(g *graph.Graph) (seconds float64, heapBytes int64) {
	var before, after runtime.MemStats
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so neither counts against the
	// overlay.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	o := graph.NewOverlay(g)
	seconds = time.Since(t0).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(o)
	return seconds, max(0, int64(after.HeapAlloc)-int64(before.HeapAlloc))
}
