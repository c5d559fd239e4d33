// Package serve is the long-lived feature-serving daemon over a loaded
// graph and census extractor: a small HTTP JSON API hardened for the
// heavy-tailed cost distribution of subgraph extraction. One
// pathological (hub) root must never take the daemon down, so every
// request passes three gates — bounded admission (shed with 429 when
// the wait queue is full), a circuit breaker around extraction (503
// while open), and per-request deadlines that degrade results row by
// row (HTTP 200 + CensusFlag taxonomy) instead of failing the request —
// and the process itself recovers handler panics and drains gracefully
// on SIGTERM.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/ingest"
)

// Config tunes the serving daemon. The zero value is usable: every
// field has a production-minded default.
type Config struct {
	// MaxInFlight bounds concurrently extracting requests. Default 4.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an extraction slot; arrivals
	// beyond it are shed with 429. Default 2 * MaxInFlight.
	MaxQueue int
	// RetryAfter is the client backoff hint attached to shed responses.
	// Default 1s.
	RetryAfter time.Duration

	// DefaultDeadline is the per-request extraction deadline when the
	// client does not send one. Default 10s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Default 60s.
	MaxDeadline time.Duration

	// RootBudget / RootDeadline are the default per-root enumeration
	// bounds applied to every request (clients may tighten but not
	// exceed them). Zero inherits the extractor's Options.
	RootBudget   int64
	RootDeadline time.Duration

	// MaxRootsPerRequest bounds the batch size of one /v1/features
	// call. Default 256.
	MaxRootsPerRequest int
	// RowCache bounds the generation-keyed feature-row cache (rows, not
	// bytes, across all shards). 0 uses DefaultRowCache; negative
	// disables caching (and with it request coalescing) entirely.
	RowCache int
	// Workers is the census worker count per request. Default 1: the
	// admission gate, not the pool, owns cross-request parallelism.
	Workers int

	// Breaker tunes the circuit breaker around extraction.
	Breaker BreakerConfig

	// DrainGrace bounds how long Serve waits for in-flight requests
	// after shutdown begins. Default 15s.
	DrainGrace time.Duration

	// Log receives operational messages; nil discards them.
	Log *log.Logger
}

func (c *Config) withDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxRootsPerRequest <= 0 {
		c.MaxRootsPerRequest = 256
	}
	if c.RowCache == 0 {
		c.RowCache = DefaultRowCache
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	c.Breaker.withDefaults()
	if c.DrainGrace <= 0 {
		c.DrainGrace = 15 * time.Second
	}
}

// Server is the hardened feature-serving daemon: an immutable serving
// snapshot (graph + extractor + optional feature set) behind admission
// control, a circuit breaker, panic isolation, zero-downtime hot
// reload, and graceful drain. Construct with NewServer, mount Handler
// on any http.Server, or let Serve own the listener lifecycle.
type Server struct {
	cfg Config

	// snap is the RCU-swapped serving generation: handlers load it once
	// per request and never observe a mid-request change. Reload (SIGHUP
	// or POST /v1/admin/reload) verifies the next generation off the
	// request path and swaps this pointer.
	snap atomic.Pointer[Snapshot]

	adm      *admission
	brk      *Breaker
	stats    *Stats
	draining atomic.Bool

	// cache is the generation-keyed feature-row cache (nil when
	// Config.RowCache < 0); epoch is the monotone serving-epoch counter
	// every publish advances, which is what keys cached rows to exactly
	// one snapshot and makes invalidation free.
	cache *rowCache
	epoch atomic.Uint64

	reloader   func(context.Context) (*Snapshot, error)
	reloadMu   sync.Mutex
	lastReload atomic.Pointer[ReloadOutcome]

	// ingest, when set via SetIngestor, backs POST /v1/ingest and feeds
	// snapshot swaps; ingestAdm is its dedicated write-admission gate.
	ingest    *ingest.Engine
	ingestAdm *admission
	// fleetFollower restricts /v1/ingest to router-sequenced fleet
	// batches (see SetFleetFollower).
	fleetFollower bool
}

// NewServer returns a server over ex with cfg (zero fields defaulted).
func NewServer(ex *core.Extractor, cfg Config) *Server {
	return NewServerSnapshot(NewSnapshot(ex), cfg)
}

// NewServerSnapshot returns a server over a prepared snapshot — the
// constructor for store-backed daemons that carry generation metadata
// and a precomputed feature set.
func NewServerSnapshot(snap *Snapshot, cfg Config) *Server {
	cfg.withDefaults()
	if snap.Fingerprint == "" {
		snap.Fingerprint = fingerprint(snap.Extractor)
	}
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		brk:   NewBreaker(cfg.Breaker),
		stats: &Stats{},
	}
	if cfg.RowCache > 0 {
		s.cache = newRowCache(cfg.RowCache)
	}
	s.publish(snap)
	return s
}

// publish stamps snap with the next serving epoch, gives it a row
// vocabulary when it has none, and RCU-swaps it in, returning the
// snapshot it replaced (nil at construction). Every path that installs
// a serving snapshot — construction, hot reload, ingest publish — must
// go through here: the epoch bump is what invalidates every feature row
// cached against the previous snapshot, so a swap that bypassed publish
// could serve stale rows forever.
func (s *Server) publish(snap *Snapshot) *Snapshot {
	if snap.vocab == nil {
		snap.vocab = newVocab()
	}
	snap.epoch = s.epoch.Add(1)
	return s.snap.Swap(snap)
}

// Stats exposes the server's counters (live; snapshot via /debug/stats).
func (s *Server) Stats() *Stats { return s.stats }

// Breaker exposes the circuit breaker, mainly for tests and tooling.
func (s *Server) Breaker() *Breaker { return s.brk }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// fingerprint digests everything that determines feature semantics —
// graph shape, label alphabet, edge-type section, extraction options —
// so clients can detect that two daemons (or one daemon across
// restarts) serve comparable features. The edge-type section is hashed
// last and only for typed graphs, so untyped fingerprints are unchanged
// by it.
func fingerprint(ex *core.Extractor) string {
	g := ex.Graph()
	opts := ex.Options()
	h := fnv.New64a()
	fmt.Fprintf(h, "v=%d|e=%d|", g.NumNodes(), g.NumEdges())
	for l := 0; l < ex.LabelSlots(); l++ {
		fmt.Fprintf(h, "l=%s|", ex.SlotName(l))
	}
	fmt.Fprintf(h, "emax=%d|dmax=%d|mask=%v|key=%d",
		opts.MaxEdges, opts.MaxDegree, opts.MaskRootLabel, opts.KeyMode)
	if g.Typed() {
		fmt.Fprintf(h, "|directed=%v", g.Directed())
		for _, name := range g.EdgeAlphabet().Names() {
			fmt.Fprintf(h, "|el=%s", name)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Handler returns the daemon's route table wrapped in the panic-recovery
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/features", s.handleFeatures)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/meta", s.handleMeta)
	mux.HandleFunc("/v1/admin/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/stats", s.handleStats)
	return s.recoverPanics(mux)
}

// Serve runs the daemon on ln until ctx is cancelled (the caller wires
// SIGTERM/SIGINT via signal.NotifyContext), then drains: the listener
// stops accepting, new requests on live connections are rejected with
// 503 draining, and in-flight extractions get up to DrainGrace to
// finish before the process gives up on them. Returns nil after a clean
// drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.logf("serve: draining (grace %v)", s.cfg.DrainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	<-errCh // Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("serve: drain incomplete after %v: %w", s.cfg.DrainGrace, err)
	}
	s.logf("serve: drained cleanly")
	return nil
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("serve: listening on %s (fingerprint %s)", ln.Addr(), s.snap.Load().Fingerprint)
	return s.Serve(ctx, ln)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// requestDeadline resolves the effective extraction deadline of one
// request: the client value clamped to MaxDeadline, or DefaultDeadline.
func (s *Server) requestDeadline(ms int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// rootLimits resolves the per-root bounds of one request: client values
// may tighten the server defaults but never exceed them.
func (s *Server) rootLimits(budget, deadlineMS int64) core.RootLimits {
	lim := core.RootLimits{Budget: s.cfg.RootBudget, Deadline: s.cfg.RootDeadline}
	if budget > 0 && (lim.Budget == 0 || budget < lim.Budget) {
		lim.Budget = budget
	}
	if d := time.Duration(deadlineMS) * time.Millisecond; d > 0 && (lim.Deadline == 0 || d < lim.Deadline) {
		lim.Deadline = d
	}
	return lim
}

// breakerFailure classifies an extraction outcome for the breaker:
// overload signals only. Deadline-truncated, cancelled and panicked
// rows mean the pool is saturated or sick; budget truncation is a
// deterministic, healthy degradation and never trips the breaker.
func breakerFailure(censuses []*core.Census, ctxErr error) bool {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		return true
	}
	for _, c := range censuses {
		if c == nil {
			return true // never reached before cancellation
		}
		if c.Flags&(core.FlagDeadlineExceeded|core.FlagCancelled|core.FlagPanicked) != 0 {
			return true
		}
	}
	return false
}
