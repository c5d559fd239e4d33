package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/graph"
	"hsgf/internal/retry"
	"hsgf/internal/serve"
)

// Config tunes the routing tier. The zero value of every field selects
// a sane default so tests and small deployments can set only Manifest
// and Shards.
type Config struct {
	// Manifest is the partition's routing metadata (required).
	Manifest *Manifest
	// Shards lists the replica base URLs per shard, outer index ==
	// shard index (required; every shard needs >= 1 replica).
	Shards [][]string

	// ProbeInterval / ProbeTimeout drive the active /readyz health
	// probe loop per replica. Defaults: 500ms / 1s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter is the consecutive transport-failure count that marks a
	// replica down from passive traffic accounting alone. Default 2.
	FailAfter int32

	// Retry bounds re-attempts of a failed shard call (a hedged pair
	// counts as one attempt). Defaults: 3 attempts, 50ms base delay
	// capped at 2s, full jitter.
	Retry retry.Policy
	// ShardTimeout bounds one attempt (hedge included) against a shard.
	// Default 15s.
	ShardTimeout time.Duration

	// HedgeDelay is the hedge trigger before the shard's latency
	// histogram has enough samples to derive a p95. Default 30ms.
	// HedgeMinDelay / HedgeMaxDelay clamp the p95-derived trigger
	// (defaults 2ms / 2s).
	HedgeDelay    time.Duration
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration

	// Breaker configures the per-shard circuit breaker (same sliding-
	// window breaker the daemon uses for its extraction pool).
	Breaker serve.BreakerConfig

	// MaxRootsPerRequest bounds one batch. Default 512.
	MaxRootsPerRequest int

	// SeqLogPath and IngestGraph together enable fleet ingest: the
	// router sequences POST /v1/ingest batches through a CRC-framed
	// sequencer WAL at SeqLogPath and checks them against IngestGraph
	// (the graph the fleet was partitioned from). With either unset the
	// router keeps its explicit 501 for ingest.
	SeqLogPath  string
	IngestGraph *graph.Graph
	// IngestAckTimeout bounds how long a client waits for full-fleet
	// confirmation before getting 503 fleet_partial_apply (the batch
	// still converges in the background). Default 10s.
	IngestAckTimeout time.Duration
	// SequenceHook, when non-nil, runs after a batch's sequence is
	// durable but before fan-out — the smoke suite's crash seam.
	SequenceHook func(seq uint64)
	// ReloadTimeout bounds each per-replica call of the fleet reload
	// protocol. Default 2m.
	ReloadTimeout time.Duration
	// DrainGrace bounds shutdown: in-flight requests get this long to
	// finish after SIGTERM. Default 10s.
	DrainGrace time.Duration

	// Transport overrides the HTTP transport (tests inject failure
	// modes); nil selects a pooled default.
	Transport http.RoundTripper
	Log       *log.Logger
}

func (c *Config) withDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay == 0 {
		c.Retry.BaseDelay = 50 * time.Millisecond
	}
	if c.Retry.MaxDelay == 0 {
		c.Retry.MaxDelay = 2 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 15 * time.Second
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 30 * time.Millisecond
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 2 * time.Millisecond
	}
	if c.HedgeMaxDelay <= 0 {
		c.HedgeMaxDelay = 2 * time.Second
	}
	if c.MaxRootsPerRequest <= 0 {
		c.MaxRootsPerRequest = 512
	}
	if c.IngestAckTimeout <= 0 {
		c.IngestAckTimeout = 10 * time.Second
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 2 * time.Minute
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
}

// Server is the routing tier: one process fronting NumShards replica
// sets of hsgfd shard workers.
type Server struct {
	cfg       Config
	numShards int
	shards    []*shard
	client    *http.Client
	stats     routerStats

	// fleet is the ingest sequencer + fan-out state; nil when the
	// router was built without SeqLogPath/IngestGraph.
	fleet *fleetIngest
	// numNodes is the live fleet node count: the manifest's count plus
	// every node added through fleet ingest since boot. Root validation
	// reads it instead of the static manifest.
	numNodes atomic.Int64

	draining atomic.Bool
	reloadMu sync.Mutex // single-flight fleet reload

	probeOnce   sync.Once
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
}

// New builds a router over cfg.Manifest and cfg.Shards. The manifest is
// re-validated (a version-1 or version-2 manifest fails with
// ErrOldManifest); replica counts may differ per shard but every shard
// needs at least one.
func New(cfg Config) (*Server, error) {
	m := cfg.Manifest
	if m == nil {
		return nil, fmt.Errorf("router: Config.Manifest is required")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != m.NumShards {
		return nil, fmt.Errorf("router: %d replica sets for %d shards", len(cfg.Shards), m.NumShards)
	}
	cfg.withDefaults()
	cfg.Manifest = nil

	s := &Server{
		cfg:       cfg,
		numShards: m.NumShards,
		client: &http.Client{
			Transport: cfg.Transport,
			// Per-call contexts bound every request; no global timeout.
		},
	}
	s.shards = make([]*shard, m.NumShards)
	for i := range s.shards {
		if len(cfg.Shards[i]) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		sh := &shard{idx: i, brk: serve.NewBreaker(cfg.Breaker)}
		for _, url := range cfg.Shards[i] {
			sh.replicas = append(sh.replicas, newReplica(url))
		}
		s.shards[i] = sh
	}
	s.numNodes.Store(int64(m.NumNodes))
	if cfg.SeqLogPath != "" && cfg.IngestGraph != nil {
		fleet, err := newFleetIngest(s, m, cfg.IngestGraph, cfg.SeqLogPath)
		if err != nil {
			return nil, err
		}
		s.fleet = fleet
	}
	return s, nil
}

// Close releases background resources: fleet-ingest senders and the
// sequencer log. Idempotent; Serve's drain path calls it.
func (s *Server) Close() {
	if s.fleet != nil {
		s.fleet.stop()
	}
}

// StartProbes launches the per-replica health probe loops; idempotent.
// Serve calls it automatically; tests driving the handler directly call
// it (or skip it and rely on passive accounting).
func (s *Server) StartProbes() {
	s.probeOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		s.probeCancel = cancel
		n := 0
		for _, sh := range s.shards {
			n += len(sh.replicas)
		}
		i := 0
		for _, sh := range s.shards {
			for _, rep := range sh.replicas {
				s.probeWG.Add(1)
				// Phase-shift probes across the fleet so they never
				// arrive in lockstep.
				offset := time.Duration(i) * s.cfg.ProbeInterval / time.Duration(n)
				i++
				go func(rep *replica) {
					defer s.probeWG.Done()
					rep.probeLoop(ctx, s.client, s.cfg.ProbeInterval, s.cfg.ProbeTimeout, offset)
				}(rep)
			}
		}
	})
}

// StopProbes halts the probe loops (Serve's drain path).
func (s *Server) StopProbes() {
	if s.probeCancel != nil {
		s.probeCancel()
		s.probeWG.Wait()
	}
}

// Handler returns the router's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/features", s.handleFeatures)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/meta", s.handleMeta)
	mux.HandleFunc("/v1/admin/reload", s.handleFleetReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/stats", s.handleStats)
	return mux
}

// Serve runs the router on ln until ctx is cancelled, then drains:
// probes stop, the listener closes, and in-flight scatter/gathers get
// DrainGrace to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.StartProbes()
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		s.StopProbes()
		s.Close()
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.logf("router: draining (grace %v)", s.cfg.DrainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	<-errCh
	s.StopProbes()
	s.Close()
	if err != nil {
		return fmt.Errorf("router: drain incomplete after %v: %w", s.cfg.DrainGrace, err)
	}
	s.logf("router: drained cleanly")
	return nil
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("router: listening on %s (%d shards)", ln.Addr(), s.numShards)
	return s.Serve(ctx, ln)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func (s *Server) retryPolicy() retry.Policy { return s.cfg.Retry }

// FeaturesResponse is the router's batch response: daemon-shaped rows
// (bit-compatible with hsgfd's, so clients need not care which tier
// answered) plus the scatter/gather report. handleFeatures writes it by
// hand (writeFeatures), byte for byte as encoding/json would.
type FeaturesResponse struct {
	Rows []serve.FeatureRow `json:"rows"`
	// Degraded is true when any row is flagged — including rows the
	// router itself degraded with shard-unavailable.
	Degraded  bool  `json:"degraded"`
	ElapsedMS int64 `json:"elapsed_ms"`
	// Shards reports each contacted shard's outcome for this batch.
	Shards []ShardReport `json:"shards"`
}

// ShardReport is one shard's outcome within a batch.
type ShardReport struct {
	Shard int  `json:"shard"`
	Roots int  `json:"roots"`
	OK    bool `json:"ok"`
	// Error is the terminal failure that degraded this shard's rows.
	Error       string `json:"error,omitempty"`
	Generation  uint64 `json:"generation,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// handleFeatures is the scatter/gather path: partition the batch's
// roots by owning shard (consistent hash), call every involved shard
// concurrently (hedged, retried, breaker-guarded), and reassemble rows
// in request order. A shard that stays unreachable past retries
// degrades its rows — flagged shard-unavailable, truncated, zero counts
// — instead of failing the batch: partial answers with an honest
// taxonomy beat a 5xx that throws away every healthy shard's work.
func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "router is draining", time.Second)
		return
	}
	s.stats.requests.Add(1)

	var req serve.FeaturesRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "undecodable body: "+err.Error(), 0)
		return
	}
	if len(req.Roots) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "roots is required and non-empty", 0)
		return
	}
	if len(req.Roots) > s.cfg.MaxRootsPerRequest {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%d roots exceeds the per-request maximum %d", len(req.Roots), s.cfg.MaxRootsPerRequest), 0)
		return
	}
	numNodes := s.numNodes.Load()
	for _, root := range req.Roots {
		if root < 0 || root >= numNodes {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("root %d out of range [0,%d)", root, numNodes), 0)
			return
		}
	}
	s.stats.rootsRouted.Add(int64(len(req.Roots)))

	// Scatter: group roots by owning shard, remembering each root's
	// position in the request so gather can place rows exactly.
	type shardBatch struct {
		roots     []int64
		positions []int
	}
	batches := make(map[int]*shardBatch)
	for pos, root := range req.Roots {
		si := graph.RootShard(graph.NodeID(root), s.numShards)
		b := batches[si]
		if b == nil {
			b = &shardBatch{}
			batches[si] = b
		}
		b.roots = append(b.roots, root)
		b.positions = append(b.positions, pos)
	}

	start := time.Now()
	type shardOutcome struct {
		idx   int
		reply *shardReply
		err   error
	}
	outcomes := make(chan shardOutcome, len(batches))
	for si, b := range batches {
		go func(si int, b *shardBatch) {
			reply, err := s.callShard(r.Context(), s.shards[si], b.roots, &req)
			outcomes <- shardOutcome{si, reply, err}
		}(si, b)
	}

	// Gather: each row is forwarded as the replica wrote it.
	rows := make([]splicedRow, len(req.Roots))
	reports := make([]ShardReport, 0, len(batches))
	degraded := false
	for range batches {
		out := <-outcomes
		b := batches[out.idx]
		report := ShardReport{Shard: out.idx, Roots: len(b.roots), OK: out.err == nil}
		if out.err != nil {
			// Partial-result degradation: every root owned by the
			// unreachable shard gets an honest placeholder row.
			s.logf("router: shard %d unavailable for %d roots: %v", out.idx, len(b.roots), out.err)
			s.stats.unavailableRows.Add(int64(len(b.roots)))
			report.Error = out.err.Error()
			for i, pos := range b.positions {
				rows[pos] = splicedRow{root: b.roots[i], tail: unavailableTail}
			}
			degraded = true
		} else {
			// The report names the generation that produced these rows.
			report.Generation, report.Fingerprint = out.reply.generation, out.reply.fingerprint
			for i, pos := range b.positions {
				rows[pos] = out.reply.rows[i]
				if !out.reply.rows[i].ok {
					degraded = true
				}
			}
		}
		reports = append(reports, report)
	}
	if degraded {
		s.stats.degradedResponses.Add(1)
	}
	elapsed := time.Since(start)
	s.stats.latency.Observe(elapsed)
	writeFeatures(w, rows, degraded, elapsed.Milliseconds(), reports)
}

func derefString(p *string) string {
	if p == nil {
		return ""
	}
	return *p
}

// MetaResponse is the router's GET /v1/meta body: the fleet topology
// and per-replica health/generation view.
type MetaResponse struct {
	NumShards int              `json:"num_shards"`
	NumNodes  int              `json:"num_nodes"`
	Shards    []ShardMetaEntry `json:"shards"`
}

type ShardMetaEntry struct {
	Shard    int           `json:"shard"`
	Breaker  string        `json:"breaker"`
	P95MS    float64       `json:"p95_ms,omitempty"`
	Replicas []ReplicaMeta `json:"replicas"`
}

type ReplicaMeta struct {
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	Generation  uint64 `json:"generation,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	resp := MetaResponse{NumShards: s.numShards, NumNodes: int(s.numNodes.Load())}
	for _, sh := range s.shards {
		entry := ShardMetaEntry{Shard: sh.idx, Breaker: sh.brk.State().String()}
		p95, _ := sh.lat.Quantile(0.95)
		entry.P95MS = math.Round(float64(p95)/float64(time.Millisecond)*1000) / 1000
		for _, rep := range sh.replicas {
			entry.Replicas = append(entry.Replicas, ReplicaMeta{
				URL:         rep.url,
				Healthy:     rep.healthy.Load(),
				Generation:  rep.generation.Load(),
				Fingerprint: derefString(rep.fingerprint.Load()),
				LastError:   derefString(rep.lastProbeErr.Load()),
			})
		}
		resp.Shards = append(resp.Shards, entry)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports the router's own readiness. The router stays
// ready while at least one shard is reachable — a single dead shard
// degrades answers but pulling the whole router out of rotation would
// turn a partial outage into a total one. Status: "ok" (all shards have
// a healthy replica), "degraded" (some do), 503 "unready"/"draining"
// (none do / shutting down).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	var down []int
	for _, sh := range s.shards {
		healthy := false
		for _, rep := range sh.replicas {
			if rep.healthy.Load() {
				healthy = true
				break
			}
		}
		if !healthy {
			down = append(down, sh.idx)
		}
	}
	switch {
	case len(down) == 0:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	case len(down) < len(s.shards):
		writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "down_shards": down})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unready", "down_shards": down})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the daemon's exact typed error shape (nested error
// object + stable top-level reason + retry hint) via the shared
// envelope helper so one client-side classifier handles both tiers.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	_ = serve.WriteJSONError(w, status, code, msg, retryAfter, nil)
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}
