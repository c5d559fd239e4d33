package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/experiments"
	"hsgf/internal/graph"
)

const whyExtract = "the paper's offline extraction (Table 3): census of 250 sampled roots per label on the three evaluation networks at full load; router, serve, ingest and store do no work"

// extractSize fixes the inputs of extract.
type extractSize struct {
	scale    float64 // experiments.LoadLabelDatasets scale
	perLabel int     // sampled roots per label; the paper uses 250
	emax     int
	dmaxPct  float64 // hub cutoff at this degree percentile, as in the paper
	setups   int     // set-ups (store loads and extractor builds), for the median set-up time
	// Gate: the refRoots sampled roots per network with the fewest
	// subgraphs are checked against the brute-force reference census,
	// whose cost grows with the neighbourhood.
	refRoots int
}

func extractSizes(smoke bool) extractSize {
	s := extractSize{
		scale: 1, perLabel: 250,
		// At emax 4 the LOAD-like network alone takes over 30 s on a
		// quarter-scale sample on 2 cores.
		emax: 3, dmaxPct: 0.9, setups: 101,
		refRoots: 8,
	}
	if smoke {
		s.scale, s.perLabel, s.setups = 0.05, 20, 1
	}
	return s
}

// extractNet is one evaluation network with its root sample.
type extractNet struct {
	name     string
	store    string // prepared snapshot store
	g        *graph.Graph
	roots    []graph.NodeID
	opts     core.Options
	ex       *core.Extractor
	censuses []*core.Census // the last pass, for the gates
}

// sampleRoots draws up to perLabel nodes of every label. The draw is a
// systematic sample over the label's nodes ordered by degree, from a
// seeded offset: the seed picks the nodes, but every seed's sample
// spans the degree distribution alike. Census cost grows steeply with
// degree, so a plain random sample of hubs would move a run's total
// work by a third from one seed to the next.
func sampleRoots(g *graph.Graph, perLabel int, rng *rand.Rand) []graph.NodeID {
	var out []graph.NodeID
	for l := 0; l < g.NumLabels(); l++ {
		nodes := g.NodesWithLabel(graph.Label(l))
		sort.SliceStable(nodes, func(i, j int) bool { return g.Degree(nodes[i]) < g.Degree(nodes[j]) })
		if len(nodes) <= perLabel {
			out = append(out, nodes...)
			continue
		}
		step := float64(len(nodes)) / float64(perLabel)
		off := rng.Float64() * step
		for i := 0; i < perLabel; i++ {
			out = append(out, nodes[int(off+float64(i)*step)])
		}
	}
	return out
}

// bootExtractors is the extract workload's set-up, from inputs prepared
// as store snapshots: load each network (the mmap path), derive its hub
// cutoff from the degree distribution and build its extractor. As for a
// fleet boot, the clock starts after a forced collection.
func bootExtractors(nets []*extractNet, sz extractSize, tr *tracer) ([]*extractNet, bootTimes, error) {
	var bt bootTimes
	runtime.GC()
	start := time.Now()
	for _, n := range nets {
		t0 := time.Now()
		err := tr.step("boot.graph_load."+n.name, func() (err error) {
			n.g, err = loadGraph(n.store)
			return err
		})
		if err != nil {
			return nil, bt, err
		}
		bt.GraphLoad += time.Since(t0)
		err = tr.step("boot.extractor."+n.name, func() (err error) {
			// Longest-first dispatch, the engine's own scheduling hint,
			// keeps both workers busy: one LOAD hub root takes 1-2 s of a
			// 3-4 s pass, and under the default chunked dispatch the pass
			// time hung on when its worker happened to claim it.
			n.opts = core.Options{MaxEdges: sz.emax, MaxDegree: graph.DegreePercentile(n.g, sz.dmaxPct), MaskRootLabel: true, LPTRootOrder: true}
			n.ex, err = core.NewExtractor(n.g, n.opts)
			return err
		})
		if err != nil {
			return nil, bt, err
		}
	}
	bt.Total = time.Since(start)
	return nets, bt, nil
}

// censusDigest folds every census of every network, by encoding string.
func censusDigest(nets []*extractNet) string {
	h := fnv.New64a()
	for _, n := range nets {
		for _, c := range n.censuses {
			fmt.Fprintf(h, "%s:%d:%d:%d;", n.name, c.Root, c.Flags, c.Subgraphs)
			encs := make([]string, 0, len(c.Counts))
			for key, cnt := range c.Counts {
				encs = append(encs, fmt.Sprintf("%s=%d", n.ex.EncodingString(key), cnt))
			}
			sort.Strings(encs)
			for _, e := range encs {
				h.Write([]byte(e))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runExtract(ctx context.Context, c *rc) error {
	sz := extractSizes(c.opt.smoke)
	setLayerDefaults(c.rep)
	ds, err := experiments.LoadLabelDatasets(sz.scale, 1)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.opt.seed))
	var prepared []*extractNet
	total := 0
	for _, d := range ds {
		n := &extractNet{name: d.Name, store: filepath.Join(c.dir, d.Name), roots: sampleRoots(d.Graph, sz.perLabel, rng)}
		if err := writeStore(n.store, d.Graph); err != nil {
			return err
		}
		prepared = append(prepared, n)
		total += len(n.roots)
	}
	// Each set-up replaces the graphs and extractors of the last one,
	// which the collector then frees; there is nothing else to release.
	nets, bt, err := setUp(ctx, c, sz.setups, func(int) ([]*extractNet, bootTimes, error) {
		return bootExtractors(prepared, sz, c.tr)
	}, func([]*extractNet) {})
	if err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	rootMS := make(map[string][]float64)
	censusTime := make(map[string]time.Duration)
	var allMS, buildMS, passRate []float64
	var digests []string
	// Allocation and GC deltas cover the census and feature-set calls
	// only, not the digests computed between passes.
	var mallocs, allocBytes, gcCycles, gcPauseNs uint64
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start).Seconds() < c.opt.seconds {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var build, passWork time.Duration
		var subgraphs int64
		for _, n := range nets {
			var m0, m1, m2 runtime.MemStats
			if c.tr != nil {
				runtime.ReadMemStats(&m0)
			}
			var times []time.Duration
			t0 := time.Now()
			_ = c.tr.step("extract.census."+n.name, func() error {
				n.censuses, times = n.ex.CensusAllTimed(n.roots, workers)
				return nil
			})
			t1 := time.Now()
			if c.tr != nil {
				runtime.ReadMemStats(&m1)
			}
			t2 := time.Now()
			err := c.tr.step("extract.features."+n.name, func() error {
				_, err := core.NewFeatureSet(n.ex, n.censuses, core.VocabularyOf(n.censuses))
				return err
			})
			if err != nil {
				return err
			}
			t3 := time.Now()
			if c.tr != nil {
				runtime.ReadMemStats(&m2)
				mallocs += m1.Mallocs - m0.Mallocs
				allocBytes += m2.TotalAlloc - m0.TotalAlloc
				gcCycles += uint64(m2.NumGC - m0.NumGC)
				gcPauseNs += m2.PauseTotalNs - m0.PauseTotalNs
			}
			censusTime[n.name] += t1.Sub(t0)
			build += t3.Sub(t2)
			passWork += t1.Sub(t0) + t3.Sub(t2)
			for _, d := range times {
				rootMS[n.name] = append(rootMS[n.name], ms(d))
				allMS = append(allMS, ms(d))
			}
			for _, cen := range n.censuses {
				subgraphs += cen.Subgraphs
			}
		}
		buildMS = append(buildMS, ms(build))
		passRate = append(passRate, float64(subgraphs)/passWork.Seconds())
		passes++
		digests = append(digests, censusDigest(nets))
	}
	elapsed := time.Since(start)

	if c.hook != nil {
		c.hook(nets)
	}
	if err := extractGate(nets, digests, sz); err != nil {
		c.rep.fail(err)
	}

	r := c.rep
	r.attempted = passes * total
	r.e2e["setup_s"] = bt.Total.Seconds()
	r.e2e["latency_p50_ms"] = percentile(append([]float64(nil), allMS...), 0.50)
	// Subgraphs, not roots, per second: a handful of hub roots carry most
	// of a pass's enumeration, so roots per second moved by half with
	// which hubs the seed's sample held. The median pass, so one pass
	// slowed by the machine does not move it.
	r.layer["census.subgraphs_per_s"] = median(passRate)

	sizes := map[string]any{}
	for _, n := range nets {
		sizes[n.name] = map[string]any{"nodes": n.g.NumNodes(), "edges": n.g.NumEdges(), "roots": len(n.roots), "dmax": n.opts.MaxDegree}
	}
	r.meta["graph"] = sizes
	r.meta["load"] = map[string]any{"scale": sz.scale, "per_label": sz.perLabel, "emax": sz.emax,
		"dmax_percentile": sz.dmaxPct, "mask_root_label": true, "workers": workers, "passes": passes,
		"seconds": elapsed.Seconds(), "setups": sz.setups}
	r.meta["census_digest"] = digests[0]
	r.meta["samples"] = map[string]int{"latency": len(allMS), "beyond_p99": len(allMS) / 100}

	if c.tr != nil {
		l := r.layer
		for _, n := range nets {
			l["census.roots_per_s."+n.name] = float64(passes*len(n.roots)) / censusTime[n.name].Seconds()
			l["census.root_ms.p50."+n.name] = percentile(rootMS[n.name], 0.50)
			l["census.root_ms.p99."+n.name] = percentile(rootMS[n.name], 0.99)
		}
		l["census.allocs_per_root"] = ratio(float64(mallocs), float64(passes*total))
		l["boot.graph_load_s"] = bt.GraphLoad.Seconds()
		l["features.build_ms"] = median(buildMS)
		l["go.gc_cycles"] = float64(gcCycles)
		l["go.gc_pause_ms"] = float64(gcPauseNs) / 1e6
		l["go.alloc_bytes_per_req"] = ratio(float64(allocBytes), float64(passes*total))
	}
	return nil
}

// extractGate checks that every pass produced the same censuses, that
// the final censuses still digest the same after the timed phase, and
// that the smallest sampled roots of each network match the brute-force
// reference census.
func extractGate(nets []*extractNet, digests []string, sz extractSize) error {
	for i, d := range digests {
		if d != digests[0] {
			return gatef("census digest of pass %d is %s, pass 1 gave %s", i+1, d, digests[0])
		}
	}
	if d := censusDigest(nets); d != digests[0] {
		return gatef("census digest after the timed phase is %s, the passes gave %s", d, digests[0])
	}
	for _, n := range nets {
		var small []*core.Census
		for _, cen := range n.censuses {
			if !cen.Truncated && cen.Subgraphs > 0 {
				small = append(small, cen)
			}
		}
		if len(small) == 0 {
			return gatef("%s: every census is empty or truncated", n.name)
		}
		sort.SliceStable(small, func(i, j int) bool { return small[i].Subgraphs < small[j].Subgraphs })
		for _, cen := range small[:min(sz.refRoots, len(small))] {
			got, err := core.CanonicalCounts(n.ex, cen)
			if err != nil {
				return gatef("%s root %d: %v", n.name, cen.Root, err)
			}
			want := core.ReferenceCensus(n.g, cen.Root, n.opts)
			if !reflect.DeepEqual(got, want) {
				return gatef("%s root %d: census %v, reference %v", n.name, cen.Root, got, want)
			}
		}
	}
	return nil
}
