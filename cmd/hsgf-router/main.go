// Command hsgf-router is the sharded, replicated serving tier: it fronts
// a fleet of hsgfd shard workers (cut by `hsgf -partition`) behind the
// same /v1/features API one hsgfd exposes, so clients cannot tell
// whether a router or a single daemon answered.
//
// Usage:
//
//	hsgf-router -manifest DIR/manifest.json \
//	    -shard 0=http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    -shard 1=http://10.0.1.1:8080,http://10.0.1.2:8080 \
//	    ... (one -shard per manifest shard) \
//	    [-addr :8090] [-probe-interval 500ms] [-fail-after 2] \
//	    [-retry-attempts 3] [-retry-base 50ms] [-retry-max 2s] \
//	    [-hedge-delay 30ms] [-hedge-max 2s] [-shard-timeout 15s] \
//	    [-breaker-window 20] [-breaker-ratio 0.5] [-breaker-cooldown 5s] \
//	    [-max-roots 512] [-drain-grace 10s]
//
// Endpoints:
//
//	POST /v1/features      scatter/gather a mixed-root batch across shards
//	GET  /v1/meta          fleet topology + per-replica health/generation
//	POST /v1/admin/reload  fleet-wide reload: verify every replica, then
//	                       flip shard-by-shard; aborts with nothing
//	                       flipped if any shard fails verification
//	GET  /healthz          liveness
//	GET  /readyz           ok / degraded (some shard down) / 503 (draining
//	                       or no shard reachable)
//	GET  /debug/stats      scatter, retry, hedge, breaker, reload counters
//
// Robustness: per-replica /readyz probing plus passive failure
// accounting, per-shard circuit breakers, bounded full-jitter retries
// that honour Retry-After, hedged requests after a p95-derived delay,
// and partial-result degradation — roots owned by an unreachable shard
// come back flagged shard-unavailable on a 200 instead of failing the
// batch. SIGTERM/SIGINT drains like hsgfd.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/retry"
	"hsgf/internal/router"
	"hsgf/internal/serve"
)

// shardFlags collects repeated -shard IDX=url,url arguments.
type shardFlags map[int][]string

func (s shardFlags) String() string { return fmt.Sprintf("%d shards", len(s)) }

func (s shardFlags) Set(v string) error {
	idxStr, urls, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want IDX=url[,url...], got %q", v)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return fmt.Errorf("bad shard index %q", idxStr)
	}
	if _, dup := s[idx]; dup {
		return fmt.Errorf("shard %d given twice", idx)
	}
	for _, u := range strings.Split(urls, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			return fmt.Errorf("shard %d has an empty replica URL", idx)
		}
		s[idx] = append(s[idx], u)
	}
	return nil
}

func main() {
	shards := shardFlags{}
	var (
		manifestPath = flag.String("manifest", "", "routing manifest written by hsgf -partition (required)")
		addr         = flag.String("addr", ":8090", "listen address")

		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "replica /readyz probe period")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "per-probe timeout")
		failAfter     = flag.Int("fail-after", 2, "consecutive transport failures that mark a replica down")

		retryAttempts = flag.Int("retry-attempts", 3, "attempts per shard call (first try included)")
		retryBase     = flag.Duration("retry-base", 50*time.Millisecond, "base backoff before the first retry (full jitter)")
		retryMax      = flag.Duration("retry-max", 2*time.Second, "backoff growth cap")

		hedgeDelay   = flag.Duration("hedge-delay", 30*time.Millisecond, "hedge trigger until a p95 is known")
		hedgeMax     = flag.Duration("hedge-max", 2*time.Second, "cap on the p95-derived hedge trigger")
		shardTimeout = flag.Duration("shard-timeout", 15*time.Second, "per-attempt timeout against one shard")

		brkWindow   = flag.Int("breaker-window", 20, "shard-call outcomes in each shard breaker's sliding window")
		brkRatio    = flag.Float64("breaker-ratio", 0.5, "windowed failure ratio that opens a shard breaker")
		brkCooldown = flag.Duration("breaker-cooldown", 5*time.Second, "open time before half-open probes")

		maxRoots      = flag.Int("max-roots", 512, "max roots per batch")
		reloadTimeout = flag.Duration("reload-timeout", 2*time.Minute, "per-replica timeout within a fleet reload")
		drainGrace    = flag.Duration("drain-grace", 10*time.Second, "max wait for in-flight batches on shutdown")

		seqLogPath  = flag.String("seqlog", "", "sequencer WAL path; with -ingest-graph, enables fleet ingest on POST /v1/ingest")
		ingestGraph = flag.String("ingest-graph", "", "graph the fleet was partitioned from, as a TSV exchange file or a store graph snapshot (required with -seqlog)")
		ackTimeout  = flag.Duration("ingest-ack-timeout", 10*time.Second, "max wait for full-fleet confirmation before 503 fleet_partial_apply")
	)
	flag.Var(shards, "shard", "replica URLs for one shard, as IDX=url[,url...]; repeat per shard")
	flag.Parse()

	logger := log.New(os.Stderr, "hsgf-router: ", log.LstdFlags)
	if *manifestPath == "" {
		fmt.Fprintln(os.Stderr, "hsgf-router: -manifest is required")
		flag.Usage()
		os.Exit(2)
	}
	m, err := router.LoadManifest(*manifestPath)
	if err != nil {
		logger.Fatal(err)
	}
	replicaSets := make([][]string, m.NumShards)
	for idx, urls := range shards {
		if idx >= m.NumShards {
			logger.Fatalf("-shard %d out of range: manifest has %d shards", idx, m.NumShards)
		}
		replicaSets[idx] = urls
	}
	for idx, urls := range replicaSets {
		if len(urls) == 0 {
			logger.Fatalf("manifest shard %d has no -shard replica URLs", idx)
		}
	}

	if (*seqLogPath == "") != (*ingestGraph == "") {
		logger.Fatal("-seqlog and -ingest-graph must be set together")
	}
	var g *graph.Graph
	if *ingestGraph != "" {
		var err error
		g, err = core.ReadGraphFile(*ingestGraph)
		if err != nil {
			logger.Fatalf("-ingest-graph: %v", err)
		}
	}
	// Crash seam for the fault-injection suite: kill the process the
	// moment sequence N is durable, before any fan-out, to prove boot
	// replay repairs the gap. Never set in production.
	var seqHook func(uint64)
	if v := os.Getenv("HSGF_ROUTER_CRASH_AFTER_SEQ"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			logger.Fatalf("HSGF_ROUTER_CRASH_AFTER_SEQ: %v", err)
		}
		seqHook = func(seq uint64) {
			if seq >= n {
				logger.Printf("crash hook: exiting after sequencing %d", seq)
				os.Exit(137)
			}
		}
	}

	srv, err := router.New(router.Config{
		Manifest:      m,
		Shards:        replicaSets,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     int32(*failAfter),
		Retry: retry.Policy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
		},
		ShardTimeout:  *shardTimeout,
		HedgeDelay:    *hedgeDelay,
		HedgeMaxDelay: *hedgeMax,
		Breaker: serve.BreakerConfig{
			Window:    *brkWindow,
			TripRatio: *brkRatio,
			Cooldown:  *brkCooldown,
		},
		MaxRootsPerRequest: *maxRoots,
		ReloadTimeout:      *reloadTimeout,
		DrainGrace:         *drainGrace,
		SeqLogPath:         *seqLogPath,
		IngestGraph:        g,
		IngestAckTimeout:   *ackTimeout,
		SequenceHook:       seqHook,
		Log:                logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		logger.Fatal(err)
	}
}
