package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/router"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

// The system under test of both serving workloads: 2 shards x 2
// replicas, every replica a real serve.Server on its own loopback
// listener, fronted by router.New, all in this process.
const (
	numShards   = 2
	numReplicas = 2
)

// partition cuts g the way `hsgf -partition` does. With a hub cutoff the
// halo is emax+1: the census reads the degree of every node entering a
// subgraph, so nodes one step past the emax-ball must keep their
// full-graph degree.
func partition(g *graph.Graph, opts core.Options) (int, []*graph.ShardPlan, error) {
	halo := opts.MaxEdges
	if opts.MaxDegree > 0 {
		halo++
	}
	plans, err := graph.PartitionByRoot(g, graph.PartitionConfig{NumShards: numShards, HaloDepth: halo})
	if err != nil {
		return 0, nil, err
	}
	return halo, plans, graph.ValidatePartition(g, plans)
}

// writeStore saves g as a new store at dir, both snapshot kinds, as
// `hsgf -partition` writes each shard.
func writeStore(dir string, g *graph.Graph) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	_, err = core.SaveGraphSnapshots(st, g)
	return err
}

// bootInputs are the prepared files one boot reads: the routing
// manifest, each replica's store directory and, for an ingest fleet,
// the full graph the router sequences writes against.
type bootInputs struct {
	manifest  string
	stores    [][]string // [shard][replica]
	fullStore string     // ingest only
	seqLog    string     // ingest only
}

// prepareInputs writes the manifest and stores for one boot under dir.
// Read-only replicas of a shard share one store, as replicas booted
// from one partition output do; ingest followers each own a store,
// since each keeps its own WAL and ingest snapshots there.
func prepareInputs(dir string, g *graph.Graph, halo int, plans []*graph.ShardPlan, ingesting bool) (*bootInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &bootInputs{manifest: filepath.Join(dir, "manifest.json")}
	if err := router.WriteManifest(in.manifest, router.BuildManifest(g.NumNodes(), halo, plans)); err != nil {
		return nil, err
	}
	in.stores = make([][]string, len(plans))
	for _, p := range plans {
		for r := 0; r < numReplicas; r++ {
			d := filepath.Join(dir, fmt.Sprintf("shard-%03d", p.Shard))
			if ingesting {
				d = filepath.Join(dir, fmt.Sprintf("shard-%03d-r%d", p.Shard, r))
			}
			if r == 0 || ingesting {
				if err := writeStore(d, p.Graph); err != nil {
					return nil, fmt.Errorf("shard %d: %w", p.Shard, err)
				}
			}
			in.stores[p.Shard] = append(in.stores[p.Shard], d)
		}
	}
	if ingesting {
		in.fullStore = filepath.Join(dir, "full")
		in.seqLog = filepath.Join(dir, "seq.wal")
		if err := writeStore(in.fullStore, g); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// replicaHandle is one booted replica.
type replicaHandle struct {
	srv *serve.Server
	eng *ingest.Engine // ingest fleets only
	ts  *httptest.Server
}

// fleet is a booted system under test.
type fleet struct {
	rt         *router.Server
	front      *httptest.Server
	reps       [][]*replicaHandle
	transport  *benchTransport
	shardNodes []int
	admin      *http.Client // readiness and /debug/stats, off the load connections
}

// bootTimes splits one set-up into its steps. A set-up child sends
// them to its parent as JSON.
type bootTimes struct {
	Total        time.Duration `json:"total_ns"`         // setup_s: from the first load to router /readyz 200
	GraphLoad    time.Duration `json:"graph_load_ns"`    // store loads of graph snapshots (mmap path)
	FollowerOpen time.Duration `json:"follower_open_ns"` // ingest.Open of every follower, graph load and seed census included
	Router       time.Duration `json:"router_ns"`        // router.New to /readyz 200
}

// medianTimes is the per-step median of set-up times.
func medianTimes(ts []bootTimes) bootTimes {
	step := func(f func(bootTimes) time.Duration) time.Duration {
		xs := make([]float64, len(ts))
		for i, t := range ts {
			xs[i] = float64(f(t))
		}
		return time.Duration(median(xs))
	}
	return bootTimes{
		Total:        step(func(t bootTimes) time.Duration { return t.Total }),
		GraphLoad:    step(func(t bootTimes) time.Duration { return t.GraphLoad }),
		FollowerOpen: step(func(t bootTimes) time.Duration { return t.FollowerOpen }),
		Router:       step(func(t bootTimes) time.Duration { return t.Router }),
	}
}

// boot starts a fleet from prepared inputs and waits until the router is
// ready. With tr set, the router and every replica handler carry span
// middleware and each boot step is a span. The clock starts after a
// forced collection, so garbage from preparing inputs or from an
// earlier boot is not collected on it.
func boot(ctx context.Context, in *bootInputs, opts core.Options, tr *tracer) (*fleet, bootTimes, error) {
	var bt bootTimes
	runtime.GC()
	start := time.Now()
	f := &fleet{
		transport: &benchTransport{
			base:     http.DefaultTransport.(*http.Transport).Clone(),
			tr:       tr,
			replicas: make(map[string]replicaID),
		},
		admin: &http.Client{Transport: &http.Transport{}},
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	var m *router.Manifest
	if err := tr.step("boot.manifest", func() (err error) {
		m, err = router.LoadManifest(in.manifest)
		return err
	}); err != nil {
		return nil, bt, err
	}
	urls := make([][]string, len(in.stores))
	f.reps = make([][]*replicaHandle, len(in.stores))
	f.shardNodes = make([]int, len(in.stores))
	for s, dirs := range in.stores {
		for r, dir := range dirs {
			rep, nodes, err := bootReplica(dir, opts, in.fullStore != "", tr, &bt)
			if err != nil {
				return nil, bt, fmt.Errorf("shard %d replica %d: %w", s, r, err)
			}
			var h http.Handler = rep.srv.Handler()
			if tr != nil {
				h = tr.replicaMiddleware(s, r, h)
			}
			rep.ts = httptest.NewServer(h)
			f.reps[s] = append(f.reps[s], rep)
			f.transport.replicas[rep.ts.Listener.Addr().String()] = replicaID{s, r}
			urls[s] = append(urls[s], rep.ts.URL)
			f.shardNodes[s] = nodes
		}
	}

	cfg := router.Config{Manifest: m, Shards: urls, Transport: f.transport}
	if in.fullStore != "" {
		t0 := time.Now()
		if err := tr.step("boot.ingest_graph_load", func() (err error) {
			cfg.IngestGraph, err = loadGraph(in.fullStore)
			return err
		}); err != nil {
			return nil, bt, err
		}
		bt.GraphLoad += time.Since(t0)
		cfg.SeqLogPath = in.seqLog
	}
	t0 := time.Now()
	err := tr.step("boot.router", func() (err error) {
		f.rt, err = router.New(cfg)
		if err != nil {
			return err
		}
		var h http.Handler = f.rt.Handler()
		if tr != nil {
			h = tr.routerMiddleware(h)
		}
		f.front = httptest.NewServer(h)
		f.rt.StartProbes()
		return f.waitReady(ctx)
	})
	if err != nil {
		return nil, bt, err
	}
	bt.Router = time.Since(t0)
	bt.Total = time.Since(start)
	ok = true
	return f, bt, nil
}

// bootReplica loads one replica's serving state from its store: a
// read-only snapshot server, or an ingest follower that owns its state.
func bootReplica(dir string, opts core.Options, ingesting bool, tr *tracer, bt *bootTimes) (*replicaHandle, int, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	if !ingesting {
		var g *graph.Graph
		var gen uint64
		t0 := time.Now()
		if err := tr.step("boot.graph_load", func() (err error) {
			g, gen, err = core.LoadGraphSnapshotAuto(st)
			return err
		}); err != nil {
			return nil, 0, err
		}
		bt.GraphLoad += time.Since(t0)
		ex, err := core.NewExtractor(g, opts)
		if err != nil {
			return nil, 0, err
		}
		snap := serve.NewSnapshot(ex)
		snap.Generation, snap.Source = gen, "store:"+dir
		return &replicaHandle{srv: serve.NewServerSnapshot(snap, serve.Config{})}, g.NumNodes(), nil
	}

	var eng *ingest.Engine
	t0 := time.Now()
	err = tr.step("boot.follower_open", func() (err error) {
		// Fleet followers accept the raised fleet sub-batch cap, as
		// cmd/hsgfd wires -ingest -fleet-follower.
		eng, err = ingest.Open(ingest.Config{Store: st, Opts: opts, MaxBatchMutations: ingest.FleetMaxBatchMutations},
			func() (*graph.Graph, error) {
				t1 := time.Now()
				g, _, err := core.LoadGraphSnapshotAuto(st)
				bt.GraphLoad += time.Since(t1)
				return g, err
			})
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	bt.FollowerOpen += time.Since(t0)
	g, ex, fs, gen, _ := eng.State()
	srv := serve.NewServerSnapshot(&serve.Snapshot{Extractor: ex, Features: fs, Generation: gen, Source: "ingest:" + dir}, serve.Config{})
	srv.SetIngestor(eng, "ingest:"+dir)
	srv.SetFleetFollower(true)
	return &replicaHandle{srv: srv, eng: eng}, g.NumNodes(), nil
}

func loadGraph(dir string) (*graph.Graph, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	g, _, err := core.LoadGraphSnapshotAuto(st)
	return g, err
}

// waitReady polls the router's /readyz until it answers 200.
func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, err := getJSON(ctx, f.admin, f.front.URL+"/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after 30s (status %d, %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the router, then the replicas, then the engines, and
// waits for each to finish.
func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.rt != nil {
		f.rt.StopProbes()
		f.rt.Close()
	}
	for _, reps := range f.reps {
		for _, r := range reps {
			if r.ts != nil {
				r.ts.Close()
			}
			if r.eng != nil {
				r.eng.Close()
			}
		}
	}
	f.transport.base.(*http.Transport).CloseIdleConnections()
	f.admin.CloseIdleConnections()
}

// counters is one snapshot of every counter the layers expose: router
// and replica /debug/stats, each follower's Engine.Stats and the Go
// runtime's memory statistics.
type counters struct {
	router   router.StatsResponse
	replicas []serve.StatsSnapshot
	engines  []ingest.Stats
	mem      runtime.MemStats
}

func (f *fleet) counters(ctx context.Context) (*counters, error) {
	c := &counters{}
	if _, err := getJSON(ctx, f.admin, f.front.URL+"/debug/stats", &c.router); err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	for _, reps := range f.reps {
		for _, r := range reps {
			var st serve.StatsSnapshot
			if _, err := getJSON(ctx, f.admin, r.ts.URL+"/debug/stats", &st); err != nil {
				return nil, fmt.Errorf("replica stats: %w", err)
			}
			if st.Cache == nil {
				return nil, errors.New("replica stats: row cache block missing")
			}
			c.replicas = append(c.replicas, st)
			if r.eng != nil {
				c.engines = append(c.engines, r.eng.Stats())
			}
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}
