package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/datagen"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

const whyIngestMixed = "writes beside reads: sequenced mutation batches fsynced at the router and applied on 4 followers, competing with Zipf reads for the same cores"

// ingestMixedSize fixes the inputs and load of ingest-mixed.
type ingestMixedSize struct {
	nodes      int
	warmup     int
	readRate   float64 // open-loop reads per second
	writeRate  float64 // open-loop batches per second, the whole timed phase
	openFrac   float64 // share of --seconds with open-loop reads; a closed-loop reader gets the rest
	setups     int     // boots, each from fresh stores, for the median set-up time
	zipfS      float64
	emax, dmax int
}

func ingestMixedSizes(smoke bool) ingestMixedSize {
	s := ingestMixedSize{
		// At 10^5 nodes each follower spends ~130 ms per batch
		// rebuilding its CSR, too few acked batches per run for a tail
		// percentile; at emax 3 one dirty ball is ~23% of the graph.
		nodes:     20000,
		warmup:    1000,
		readRate:  300,
		writeRate: 2,
		openFrac:  0.6,
		setups:    7,
		zipfS:     1.1,
		emax:      2,
		dmax:      64,
	}
	if smoke {
		s.nodes, s.warmup, s.readRate, s.writeRate, s.setups = 600, 30, 60, 4, 1
	}
	return s
}

// writeStream is the deterministic sequence of mutation batches, shaped
// like cmd/ingestbench's: one new edge between two nodes of the seed
// graph and one relabel per batch, plus a new node every 8th batch.
type writeStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	g       *graph.Graph
	seed    int64
	added   map[[2]graph.NodeID]bool
	batches [][]graph.Mutation
}

func (ws *writeStream) id(k int) string { return fmt.Sprintf("s%d-b%d", ws.seed, k) }

func (ws *writeStream) get(k int) []graph.Mutation {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	labels := ws.g.Alphabet().Names()
	n := ws.g.NumNodes()
	for len(ws.batches) <= k {
		var muts []graph.Mutation
		if len(ws.batches)%8 == 0 {
			muts = append(muts, graph.Mutation{Op: graph.OpAddNode, Label: labels[ws.rng.Intn(len(labels))]})
		}
		for {
			u, v := graph.NodeID(ws.rng.Intn(n)), graph.NodeID(ws.rng.Intn(n))
			if u > v {
				u, v = v, u
			}
			if u != v && !ws.g.HasEdge(u, v) && !ws.added[[2]graph.NodeID{u, v}] {
				ws.added[[2]graph.NodeID{u, v}] = true
				muts = append(muts, graph.Mutation{Op: graph.OpAddEdge, U: u, V: v})
				break
			}
		}
		muts = append(muts, graph.Mutation{Op: graph.OpRelabel, U: graph.NodeID(ws.rng.Intn(n)), Label: labels[ws.rng.Intn(len(labels))]})
		ws.batches = append(ws.batches, muts)
	}
	return ws.batches[k]
}

func wireMutations(muts []graph.Mutation) []serve.IngestMutation {
	out := make([]serve.IngestMutation, len(muts))
	for i, m := range muts {
		out[i] = serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label, Name: m.Name}
	}
	return out
}

func runIngestMixed(ctx context.Context, c *rc) error {
	sz := ingestMixedSizes(c.opt.smoke)
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
	// Followers own their stores, so every boot gets fresh ones.
	bootFresh := func(i int) (*fleet, bootTimes, error) {
		in, err := prepareInputs(filepath.Join(c.dir, fmt.Sprintf("fleet%d", i)), g, halo, plans, true)
		if err != nil {
			return nil, bootTimes{}, err
		}
		return boot(ctx, in, opts, c.tr)
	}
	f, bt, err := setUp(ctx, c, sz.setups, bootFresh, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()
	sent := newSentLog()
	readers := newClient(f.front.URL, 1, sent)
	defer readers.close()
	writer := newClient(f.front.URL, 1, sent)
	defer writer.close()

	rs := newReadStream(c.opt.seed, g.NumNodes(), sz.zipfS)
	ws := &writeStream{rng: rand.New(rand.NewSource(c.opt.seed + 2)), g: g, seed: c.opt.seed, added: make(map[[2]graph.NodeID]bool)}
	readOp := func(ctx context.Context, i int) error {
		_, err := readers.read(ctx, fmt.Sprintf("r%d", i), rs.get(i), false)
		return err
	}
	var walBytes, walBatches uint64
	var prevEng []ingest.Stats
	acked := 0
	writeOp := func(ctx context.Context, k int) error {
		if err := writer.write(ctx, ws.id(k), wireMutations(ws.get(k))); err != nil {
			return err
		}
		acked = max(acked, k+1)
		if c.tr != nil {
			// Per-batch WAL growth, skipping intervals with a compaction
			// (which resets the log). The writer is the only one, so
			// between two acks each follower applied at most this batch.
			for i, eng := range engines(f) {
				st := eng.Stats()
				if st.Compactions == prevEng[i].Compactions && st.Applied > prevEng[i].Applied && st.WALBytes >= prevEng[i].WALBytes {
					walBytes += uint64(st.WALBytes - prevEng[i].WALBytes)
					walBatches += st.Applied - prevEng[i].Applied
				}
				prevEng[i] = st
			}
		}
		return nil
	}

	warm := openLoop(ctx, make([]time.Duration, sz.warmup), 1, readOp)
	if c.tr != nil {
		for _, e := range engines(f) {
			prevEng = append(prevEng, e.Stats())
		}
	}

	openSecs := c.opt.seconds * sz.openFrac
	openEnd, end := time.Duration(openSecs*float64(time.Second)), time.Duration(c.opt.seconds*float64(time.Second))
	readDue := poissonSchedule(rand.New(rand.NewSource(c.opt.seed+1)), sz.readRate, 0, openEnd)
	openReads := len(readDue)
	// Batches arrive over the whole timed phase, drawn apart for the
	// open-loop and the closed-loop reads, so every seed puts the same
	// write load on each.
	wrng := rand.New(rand.NewSource(c.opt.seed + 3))
	writeDue := append(poissonSchedule(wrng, sz.writeRate, 0, openEnd), poissonSchedule(wrng, sz.writeRate, openEnd, end)...)
	nWrites := len(writeDue)

	before, err := f.counters(ctx)
	if err != nil {
		return err
	}
	var from int64
	if c.tr != nil {
		from = c.tr.now()
	}
	// The writer runs an open loop over the whole timed phase. Beside it
	// one reader connection runs an open loop, whose reads give the read
	// latencies under writes, then a closed loop, which gives the read
	// capacity left while the batches apply.
	var readsOpen, readsClosed *loopResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readsOpen = openLoop(ctx, readDue, 1, func(ctx context.Context, i int) error { return readOp(ctx, sz.warmup+i) })
		readsClosed = closedLoop(ctx, time.Duration((c.opt.seconds-openSecs)*float64(time.Second)), 1, sz.warmup+openReads, readOp)
	}()
	writes := openLoop(ctx, writeDue, 1, writeOp)
	wg.Wait()
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
	if err := ingestGate(ctx, c, g, opts, ws, acked, readers, rs); err != nil {
		c.rep.fail(err)
	}

	readAll, writeAll := &loopResult{}, &loopResult{}
	readAll.merge(warm)
	readAll.merge(readsOpen)
	readAll.merge(readsClosed)
	writeAll.merge(writes)
	r := c.rep
	r.attempted = readAll.attempted + writeAll.attempted
	r.failed = readAll.failed + writeAll.failed
	for _, e := range []error{readAll.firstErr, writeAll.firstErr} {
		if e != nil {
			r.meta["first_failure"] = e.Error()
		}
	}
	r.e2e["setup_s"] = bt.Total.Seconds()
	// Read latency under writes, not the write ack: 40 acks per run gave
	// a median whose quartile spread across seeds exceeded the bound.
	r.e2e["latency_p50_ms"] = percentile(durations(readsOpen.latency, ms), 0.50)
	r.layer["client.read_capacity_per_s"] = float64(len(readsClosed.latency)) / readsClosed.elapsed.Seconds()

	keys := make([]string, 0, sz.warmup+openReads+nWrites)
	for i := 0; i < sz.warmup+openReads; i++ {
		keys = append(keys, fmt.Sprintf("r%d", i))
	}
	for k := 0; k < nWrites; k++ {
		keys = append(keys, ws.id(k))
	}
	r.meta["requests_digest"] = sent.digest(keys)
	r.meta["graph"] = map[string]any{"nodes": g.NumNodes(), "edges": g.NumEdges(), "halo": halo,
		"shard_nodes": f.shardNodes, "emax": sz.emax, "dmax": sz.dmax, "mask_root_label": true}
	r.meta["load"] = map[string]any{
		"zipf_s": sz.zipfS, "roots_per_read": rootsPerRead, "warmup_reads": sz.warmup,
		"read_rate_per_s": sz.readRate, "read_connections": 1, "open_reads": openReads,
		"closed_reads": readsClosed.attempted, "closed_seconds": readsClosed.elapsed.Seconds(),
		"write_rate_per_s": sz.writeRate, "write_connections": 1, "batches": nWrites,
		"setups": sz.setups,
	}
	r.meta["reads"] = map[string]int{"attempted": readAll.attempted, "failed": readAll.failed}
	r.meta["writes"] = map[string]int{"attempted": writeAll.attempted, "failed": writeAll.failed}
	r.meta["read_latency_ms"] = latencySummary(readsOpen.latency)
	r.meta["write_ack_ms"] = latencySummary(writes.latency)
	r.meta["late_ms"] = latencySummary(append(append([]time.Duration(nil), readsOpen.late...), writes.late...))

	if c.tr != nil {
		ops := readsOpen.attempted + readsClosed.attempted + writes.attempted
		st := analyze(c.tr.snapshot(), from, to, f.shardNodes)
		servingLayers(r, before, after, st, ops, bt)
		lateness(r, append(append([]time.Duration(nil), readsOpen.late...), writes.late...))
		l := r.layer
		l["router.ingest_self_ms.p50"] = percentile(durations(st.ingestSelf, ms), 0.50)
		l["router.seqlog_bytes"] = float64(after.router.FleetSeqlogBytes - before.router.FleetSeqlogBytes)
		l["router.acked_index"] = float64(after.router.FleetAckedIndex - before.router.FleetAckedIndex)
		l["serve.ingest_ms.p50"] = percentile(durations(st.serveIngest, ms), 0.50)
		l["serve.ingest_ms.p90"] = percentile(durations(st.serveIngest, ms), 0.90)
		var p50s, p99s []float64
		var compactions float64
		for i, a := range after.engines {
			p50s = append(p50s, a.ApplyP50MS)
			p99s = append(p99s, a.ApplyP99MS)
			compactions += float64(a.Compactions - before.engines[i].Compactions)
		}
		l["ingest.apply_ms.p50"] = median(p50s)
		l["ingest.apply_ms.p99"] = percentile(p99s, 1)
		dirty := make([]float64, len(st.dirty))
		for i, d := range st.dirty {
			dirty[i] = float64(d)
		}
		l["ingest.dirty_roots_mean"] = mean(dirty)
		l["ingest.dirty_frac"] = mean(st.dirtyFrac)
		l["ingest.compactions"] = compactions
		l["ingest.wal_bytes_per_batch"] = ratio(float64(walBytes), float64(walBatches))
		readLayers(r, readAll, readsOpen.latency)
		l["client.write_attempted"] = float64(writeAll.attempted)
		l["client.write_failed"] = float64(writeAll.failed)
		l["client.write_ack_p50_ms"] = percentile(durations(writes.latency, ms), 0.50)
		l["client.write_ack_p90_ms"] = percentile(durations(writes.latency, ms), 0.90)
	}
	return nil
}

func engines(f *fleet) []*ingest.Engine {
	var out []*ingest.Engine
	for _, reps := range f.reps {
		for _, r := range reps {
			out = append(out, r.eng)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ingestGate feeds one unsharded ingest.Engine over the seed graph the
// batches the fleet acked, in order, then compares rows read through
// the router with the engine's censuses: the fleet smoke test's oracle.
// The sample adds the nodes the batches created to the popular and
// unpopular roots of the read stream.
func ingestGate(ctx context.Context, c *rc, g *graph.Graph, opts core.Options, ws *writeStream, acked int, cl *client, rs *readStream) error {
	st, err := store.Open(filepath.Join(c.dir, "oracle"), store.Options{})
	if err != nil {
		return err
	}
	oracle, err := ingest.Open(ingest.Config{Store: st, Opts: opts}, func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		return err
	}
	defer oracle.Close()
	for k := 0; k < acked; k++ {
		if _, err := oracle.Apply(ctx, ws.id(k), ws.get(k)); err != nil {
			return fmt.Errorf("oracle batch %d: %w", k, err)
		}
	}
	og, ex, _, _, _ := oracle.State()
	roots := gateRoots(c.opt.seed, rs, g.NumNodes())
	for v := g.NumNodes(); v < og.NumNodes() && v < g.NumNodes()+8; v++ {
		roots = append(roots, int64(v))
	}
	return checkRows(ctx, cl, ex, roots)
}
