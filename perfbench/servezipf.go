package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
)

const whyServeZipf = "cache-friendly read path: Zipf roots through the router of a read-only 2x2 fleet; router, HTTP and JSON carry the load, census runs only on misses"

// serveZipfSize fixes the inputs and load of serve-zipf.
type serveZipfSize struct {
	nodes      int
	warmup     int     // untimed reads before the timed phase
	rate       float64 // open-loop arrivals per second
	conns      int
	openFrac   float64 // share of --seconds spent in the open loop; the closed loop gets the rest
	setups     int     // boots, for the median set-up time
	zipfS      float64
	emax, dmax int
}

func serveZipfSizes(smoke bool) serveZipfSize {
	s := serveZipfSize{
		// The middle rung of BENCH_scale.json: hierarchical citation
		// profile at 10^5 nodes, about 574k edges.
		nodes:  100000,
		warmup: 3000,
		rate:   200,
		// nproc load connections.
		conns:    2,
		openFrac: 0.6,
		setups:   15,
		zipfS:    1.1,
		emax:     3,
		dmax:     64,
	}
	if smoke {
		s.nodes, s.warmup, s.rate, s.setups = 2000, 50, 100, 1
	}
	return s
}

func runServeZipf(ctx context.Context, c *rc) error {
	sz := serveZipfSizes(c.opt.smoke)
	setLayerDefaults(c.rep)

	h, err := datagen.GenerateHierarchical(datagen.DefaultHierarchicalConfig(sz.nodes))
	if err != nil {
		return err
	}
	g := h.Graph
	opts := core.Options{MaxEdges: sz.emax, MaxDegree: sz.dmax, MaskRootLabel: true}
	halo, plans, err := partition(g, opts)
	if err != nil {
		return err
	}
	in, err := prepareInputs(filepath.Join(c.dir, "fleet"), g, halo, plans, false)
	if err != nil {
		return err
	}
	f, bt, err := setUp(ctx, c, sz.setups, func(int) (*fleet, bootTimes, error) { return boot(ctx, in, opts, c.tr) }, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()
	sent := newSentLog()
	cl := newClient(f.front.URL, sz.conns, sent)
	defer cl.close()

	rs := newReadStream(c.opt.seed, g.NumNodes(), sz.zipfS)
	readOp := func(ctx context.Context, i int) error {
		_, err := cl.read(ctx, fmt.Sprintf("r%d", i), rs.get(i), false)
		return err
	}
	// Warm-up: the first reads of the stream, back to back, so the row
	// caches hold the Zipf head before timing starts.
	warm := openLoop(ctx, make([]time.Duration, sz.warmup), sz.conns, readOp)

	openSecs := c.opt.seconds * sz.openFrac
	due := poissonSchedule(rand.New(rand.NewSource(c.opt.seed+1)), sz.rate, 0, time.Duration(openSecs*float64(time.Second)))
	n := len(due)
	before, err := f.counters(ctx)
	if err != nil {
		return err
	}
	var from int64
	if c.tr != nil {
		from = c.tr.now()
	}
	open := openLoop(ctx, due, sz.conns, func(ctx context.Context, i int) error { return readOp(ctx, sz.warmup+i) })
	closed := closedLoop(ctx, time.Duration((c.opt.seconds-openSecs)*float64(time.Second)), sz.conns, sz.warmup+n, readOp)
	after, err := f.counters(ctx)
	if err != nil {
		return err
	}
	var to int64
	if c.tr != nil {
		to = c.tr.now()
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	if c.hook != nil {
		c.hook(f)
	}
	ref, err := core.NewExtractor(g, opts)
	if err != nil {
		return err
	}
	if err := checkRows(ctx, cl, ref, gateRoots(c.opt.seed, rs, g.NumNodes())); err != nil {
		c.rep.fail(err)
	}

	all := &loopResult{}
	all.merge(warm)
	all.merge(open)
	all.merge(closed)
	r := c.rep
	r.attempted, r.failed = all.attempted, all.failed
	if all.firstErr != nil {
		r.meta["first_failure"] = all.firstErr.Error()
	}
	r.e2e["setup_s"] = bt.Total.Seconds()
	r.e2e["latency_p50_ms"] = percentile(durations(open.latency, ms), 0.50)
	r.layer["client.read_capacity_per_s"] = float64(len(closed.latency)) / closed.elapsed.Seconds()

	keys := make([]string, 0, sz.warmup+n)
	for i := 0; i < sz.warmup+n; i++ {
		keys = append(keys, fmt.Sprintf("r%d", i))
	}
	r.meta["requests_digest"] = sent.digest(keys)
	r.meta["graph"] = map[string]any{"nodes": g.NumNodes(), "edges": g.NumEdges(), "halo": halo,
		"shard_nodes": f.shardNodes, "emax": sz.emax, "dmax": sz.dmax, "mask_root_label": true}
	r.meta["load"] = map[string]any{
		"zipf_s": sz.zipfS, "roots_per_read": rootsPerRead, "warmup_reads": sz.warmup,
		"open_rate_per_s": sz.rate, "open_reads": n, "open_seconds": open.elapsed.Seconds(),
		"closed_reads": closed.attempted, "closed_seconds": closed.elapsed.Seconds(),
		"connections": sz.conns, "setups": sz.setups,
	}
	r.meta["reads"] = map[string]int{"attempted": all.attempted, "failed": all.failed}
	r.meta["read_latency_ms"] = latencySummary(open.latency)
	r.meta["read_late_ms"] = latencySummary(open.late)

	if c.tr != nil {
		ops := open.attempted + closed.attempted
		st := analyze(c.tr.snapshot(), from, to, f.shardNodes)
		servingLayers(r, before, after, st, ops, bt)
		lateness(r, open.late)
		readLayers(r, all, open.latency)
	}
	return nil
}
