// Command hsgfd is the hardened feature-serving daemon: it loads a graph
// (a TSV exchange file or a store graph snapshot) once, builds a census
// extractor over it, and serves heterogeneous subgraph features over a
// long-lived HTTP JSON API.
//
// Usage:
//
//	hsgfd -in graph.tsv [-store DIR] [-addr :8080] [-emax 5] [-mask] \
//	      [-dmax N | -dmax-percentile 0.9] [-root-budget N] [-root-deadline 2s] \
//	      [-max-inflight 4] [-max-queue 8] [-default-deadline 10s] \
//	      [-drain-grace 15s] [-pprof-addr localhost:6060]
//
// Endpoints:
//
//	POST /v1/features      roots -> characteristic-sequence feature rows
//	POST /v1/ingest        apply a durable graph-mutation batch (-ingest mode)
//	GET  /v1/meta          graph/options fingerprint, generation, limits
//	POST /v1/admin/reload  verify + swap in the newest artifact generation
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while draining)
//	GET  /debug/stats      admission/breaker/reload counters + latency p50/p99
//
// The daemon is built for the heavy-tailed per-root extraction cost of
// real networks: requests pass bounded admission (429 + Retry-After when
// the wait queue is full), a circuit breaker around extraction (503 with
// a typed JSON error while open), and per-request deadlines that degrade
// results row by row (HTTP 200 + flags) rather than failing the batch.
// SIGTERM/SIGINT starts a graceful drain: the listener closes, in-flight
// requests get -drain-grace to finish, then the process exits 0 on a
// clean drain and 1 otherwise.
//
// With -store DIR the graph is served from a crash-safe artifact store
// of checksummed, generation-numbered snapshots: the daemon boots from
// the newest generation that passes verification (quarantining corrupt
// ones), and SIGHUP or POST /v1/admin/reload hot-swaps the newest good
// generation in with zero downtime — in-flight requests finish on the
// generation they started with. When both -in and -store are given and
// the store is empty, the -in graph is imported as generation 1.
// Without -store, -in alone still supports hot reload by re-reading the
// file.
//
// With -ingest (requires -store) the daemon accepts streaming graph
// mutations on POST /v1/ingest: each batch is made durable in a
// write-ahead log before it is acknowledged, and the mutated graph is
// swapped into the serving path before the ack is sent (the ack reports
// the size of the mutations' distance-≤emax dirty ball; rows are
// computed on demand from the new graph). On restart — clean or after a
// crash — the daemon recovers from the newest verified ingest snapshot
// plus the WAL tail, so no acked batch is ever lost and replayed batch
// IDs are acknowledged without being applied twice. In ingest mode the engine owns the serving
// state, so artifact hot reload (-store generations via SIGHUP or
// /v1/admin/reload) is disabled, and -dmax-percentile is rejected: a
// percentile cutoff would drift as the graph mutates, silently changing
// feature semantics between restarts. The fixed -dmax cutoff is stable
// under mutation and works in either mode.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; served only via -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"hsgf"
	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/serve"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph: a TSV exchange file or a store graph snapshot")
		storeDir = flag.String("store", "", "artifact store directory: boot from and hot-reload checksummed graph snapshots")
		retain   = flag.Int("retain", 0, "snapshot generations retained per artifact kind (0 = store default)")
		addr     = flag.String("addr", ":8080", "listen address")
		emax     = flag.Int("emax", 5, "maximum edges per subgraph")
		dmax     = flag.Int("dmax", 0, "fixed hub degree cutoff; 0 disables")
		dmaxPct  = flag.Float64("dmax-percentile", 0, "hub cutoff as a degree percentile in (0,1); 0 disables")
		mask     = flag.Bool("mask", false, "mask the root node's label during extraction")

		rootBudget   = flag.Int64("root-budget", 0, "default max subgraphs enumerated per root; 0 = unlimited")
		rootDeadline = flag.Duration("root-deadline", 0, "default max wall-clock time per root; 0 = unlimited")

		maxInflight = flag.Int("max-inflight", 4, "concurrent extracting requests")
		rowCache    = flag.Int("row-cache", serve.DefaultRowCache, "feature-row cache bound in rows across all shards; 0 disables caching and request coalescing")
		maxQueue    = flag.Int("max-queue", 0, "queued requests beyond in-flight before shedding (0 = 2x in-flight)")
		maxRoots    = flag.Int("max-roots", 256, "max roots per request")
		workers     = flag.Int("request-workers", 1, "census workers per request")

		defaultDeadline = flag.Duration("default-deadline", 10*time.Second, "extraction deadline when the client sends none")
		maxDeadline     = flag.Duration("max-deadline", 60*time.Second, "cap on client-requested deadlines")

		brkWindow   = flag.Int("breaker-window", 20, "request outcomes in the breaker's sliding window")
		brkRatio    = flag.Float64("breaker-ratio", 0.5, "windowed failure ratio that opens the breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "open time before half-open probes")

		drainGrace = flag.Duration("drain-grace", 15*time.Second, "max wait for in-flight requests on shutdown")

		ingestOn      = flag.Bool("ingest", false, "accept streaming graph mutations on POST /v1/ingest (requires -store)")
		ingestCompact = flag.Int("ingest-compact-every", 0, "fold the WAL into a snapshot after this many batches (0 = engine default)")
		fleetFollower = flag.Bool("fleet-follower", false, "accept only hsgf-router-sequenced fleet batches on /v1/ingest (requires -ingest); direct client writes get 403")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()
	if *in == "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "hsgfd: need -in, -store, or both")
		flag.Usage()
		os.Exit(2)
	}
	if *fleetFollower && !*ingestOn {
		fmt.Fprintln(os.Stderr, "hsgfd: -fleet-follower requires -ingest")
		os.Exit(2)
	}
	if *ingestOn && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "hsgfd: -ingest requires -store (the WAL and ingest snapshots live there)")
		os.Exit(2)
	}
	if *dmax < 0 {
		fmt.Fprintln(os.Stderr, "hsgfd: -dmax must be >= 0")
		os.Exit(2)
	}
	if *dmax > 0 && *dmaxPct != 0 {
		fmt.Fprintln(os.Stderr, "hsgfd: -dmax and -dmax-percentile are mutually exclusive")
		os.Exit(2)
	}
	if *ingestOn && *dmaxPct != 0 {
		fmt.Fprintln(os.Stderr, "hsgfd: -dmax-percentile is incompatible with -ingest: a percentile cutoff would drift as the graph mutates; use the fixed -dmax cutoff or none")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "hsgfd: ", log.LstdFlags)

	// buildSnapshot loads the serving graph — from the artifact store
	// when one is configured (newest verified generation, memory-mapped;
	// an empty store imports -in as generation 1), from the -in graph
	// file otherwise — and wraps it as an immutable serving snapshot.
	// It runs at boot and again on every hot reload, off the request
	// path.
	var st *hsgf.Store
	if *storeDir != "" {
		var err error
		st, err = hsgf.OpenStore(*storeDir, hsgf.StoreOptions{
			Retain: *retain,
			Log:    logger.Printf,
		})
		if err != nil {
			logger.Fatal(err)
		}
	}
	buildSnapshot := func() (*serve.Snapshot, error) {
		var (
			g      *hsgf.Graph
			gen    uint64
			source string
		)
		if st != nil {
			var err error
			g, gen, err = hsgf.LoadGraphSnapshot(st)
			switch {
			case err == nil:
				source = "store:" + *storeDir
			case errors.Is(err, hsgf.ErrStoreNotFound) && *in != "":
				// Empty store + -in graph: import it as the first
				// generation, then serve it.
				g, err = hsgf.ReadGraphFile(*in)
				if err != nil {
					return nil, err
				}
				gen, err = hsgf.SaveGraphSnapshot(st, g)
				if err != nil {
					return nil, err
				}
				source = "store:" + *storeDir
				logger.Printf("imported %s into %s as generation %d", *in, *storeDir, gen)
			default:
				return nil, err
			}
		} else {
			var err error
			g, err = hsgf.ReadGraphFile(*in)
			if err != nil {
				return nil, err
			}
			source = "tsv:" + *in
		}

		opts := hsgf.Options{MaxEdges: *emax, MaskRootLabel: *mask, MaxDegree: *dmax}
		if *dmaxPct > 0 && *dmaxPct < 1 {
			opts.MaxDegree = hsgf.DegreePercentile(g, *dmaxPct)
		}
		ex, err := hsgf.NewExtractor(g, opts)
		if err != nil {
			return nil, err
		}
		snap := serve.NewSnapshot(ex)
		snap.Generation = gen
		snap.Source = source
		return snap, nil
	}

	// The flag's 0 means "off"; the config's 0 means "default", so map
	// explicitly: anything <= 0 disables the cache (and coalescing).
	cacheSize := *rowCache
	if cacheSize <= 0 {
		cacheSize = -1
	}

	serveCfg := serve.Config{
		MaxInFlight:        *maxInflight,
		MaxQueue:           *maxQueue,
		DefaultDeadline:    *defaultDeadline,
		MaxDeadline:        *maxDeadline,
		RootBudget:         *rootBudget,
		RootDeadline:       *rootDeadline,
		MaxRootsPerRequest: *maxRoots,
		RowCache:           cacheSize,
		Workers:            *workers,
		Breaker: serve.BreakerConfig{
			Window:    *brkWindow,
			TripRatio: *brkRatio,
			Cooldown:  *brkCooldown,
		},
		DrainGrace: *drainGrace,
		Log:        logger,
	}

	var srv *serve.Server
	var eng *ingest.Engine
	if *ingestOn {
		// Streaming-ingest mode: the engine owns the serving state. It
		// recovers from the newest verified ingest snapshot plus the WAL
		// tail; an empty store seeds from the graph artifact or -in.
		// Fleet followers take router-sequenced batches up to the
		// fleet cap, which the router enforces on every client batch
		// before sequencing it, so the engine must accept up to that
		// bound.
		maxBatch := 0 // engine default
		if *fleetFollower {
			maxBatch = ingest.FleetMaxBatchMutations
		}
		var err error
		eng, err = ingest.Open(ingest.Config{
			Store:             st,
			Opts:              hsgf.Options{MaxEdges: *emax, MaskRootLabel: *mask, MaxDegree: *dmax},
			CompactEvery:      *ingestCompact,
			MaxBatchMutations: maxBatch,
			Log:               logger.Printf,
		}, func() (*graph.Graph, error) {
			if g, _, err := hsgf.LoadGraphSnapshot(st); err == nil {
				return g, nil
			} else if !errors.Is(err, hsgf.ErrStoreNotFound) {
				return nil, err
			}
			if *in == "" {
				return nil, fmt.Errorf("ingest: store %s has no graph and no -in was given", *storeDir)
			}
			return hsgf.ReadGraphFile(*in)
		})
		if err != nil {
			logger.Fatal(err)
		}
		defer eng.Close()

		source := "ingest:" + *storeDir
		g, ex, _, gen, lastSeq := eng.State()
		logger.Printf("ingest: serving %d nodes, %d edges at generation %d, watermark %d",
			g.NumNodes(), g.NumEdges(), gen, lastSeq)
		srv = serve.NewServerSnapshot(&serve.Snapshot{
			Extractor:  ex,
			Generation: gen,
			Source:     source,
		}, serveCfg)
		// The engine's publish hook swaps each applied batch into the
		// serving path; artifact hot reload stays disabled (no reloader →
		// admin reload answers 501) because two writers swapping the same
		// snapshot pointer could resurrect a pre-mutation generation.
		srv.SetIngestor(eng, source)
		if *fleetFollower {
			srv.SetFleetFollower(true)
			logger.Printf("ingest: fleet-follower mode, shard fleet watermark %d", eng.FleetWatermark())
		}
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				logger.Printf("SIGHUP ignored: hot reload is disabled in -ingest mode (the engine owns the serving state)")
			}
		}()
	} else {
		snap, err := buildSnapshot()
		if err != nil {
			logger.Fatal(err)
		}
		g := snap.Extractor.Graph()
		logger.Printf("loaded %s: %d nodes, %d edges, %d labels (emax=%d mask=%v, generation %d)",
			snap.Source, g.NumNodes(), g.NumEdges(), g.NumLabels(), *emax, *mask, snap.Generation)

		srv = serve.NewServerSnapshot(snap, serveCfg)

		// Hot reload: rebuild the snapshot off the request path and RCU-swap
		// it in. SIGHUP and POST /v1/admin/reload share the single-flight
		// Reload path; a failed reload (corrupt store, unreadable -in
		// file) keeps the current generation serving.
		srv.SetReloader(func(ctx context.Context) (*serve.Snapshot, error) {
			return buildSnapshot()
		})
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if _, err := srv.Reload(context.Background()); err != nil {
					logger.Printf("SIGHUP reload: %v", err)
				}
			}
		}()
	}

	// The profiling listener is separate from the serving address so it
	// can stay bound to localhost while the API is public, and so profile
	// scrapes never compete with request admission. Off by default.
	if *pprofAddr != "" {
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	// SIGTERM/SIGINT begin the graceful drain; a second signal kills the
	// process the default way (NotifyContext unregisters after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "hsgfd:", err)
		os.Exit(1)
	}
}
