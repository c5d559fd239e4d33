package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hsgf/internal/core"
)

// Reload errors.
var (
	// ErrNoReloader: the daemon was started without a reload source
	// (SetReloader was never called), so hot reload is unsupported.
	ErrNoReloader = errors.New("serve: no reloader configured")
	// ErrReloadInProgress: another reload is already running; reloads
	// are single-flight so concurrent triggers cannot interleave.
	ErrReloadInProgress = errors.New("serve: reload already in progress")
)

// Snapshot is one immutable serving generation: the graph (owned by the
// extractor), the extractor over it, and the fingerprint clients use to
// detect semantic changes. Feature rows are computed from the extractor
// on demand (behind the row cache).
// Handlers load the snapshot pointer once per request, so a reload
// never changes the data a request is mid-way through serving — the
// RCU contract: readers see either the old generation or the new one,
// never a mixture.
type Snapshot struct {
	Extractor *core.Extractor
	// Features is not read by the server; the field stays only so that
	// callers which still set it compile.
	Features *core.FeatureSet
	// Fingerprint digests graph shape + extraction options (see
	// fingerprint); filled by NewSnapshot when left empty.
	Fingerprint string
	// Generation is the artifact-store generation this snapshot was
	// loaded from; 0 for data loaded directly from a file.
	Generation uint64
	// Source describes where the snapshot came from, for /v1/meta and
	// logs (e.g. "store:/var/lib/hsgf" or "tsv:graph.tsv").
	Source string

	// epoch is the serving epoch Server.publish stamped this snapshot
	// with: a counter that advances on every swap, strictly finer than
	// Generation (an ingest batch publishes without minting a store
	// generation, and a TSV reload re-serves generation 0). Cached
	// feature rows are keyed by it, so any published snapshot — even one
	// byte-identical to its predecessor — starts from a cold cache
	// rather than risking a stale row.
	epoch uint64
}

// NewSnapshot wraps an extractor as a serving snapshot, computing the
// fingerprint if unset.
func NewSnapshot(ex *core.Extractor) *Snapshot {
	return &Snapshot{Extractor: ex, Fingerprint: fingerprint(ex)}
}

// ReloadOutcome records the result of the most recent reload attempt
// for /debug/stats and /readyz.
type ReloadOutcome struct {
	Outcome    string `json:"outcome"` // "ok" or "failed"
	Error      string `json:"error,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	ElapsedMS  int64  `json:"elapsed_ms"`
}

// SetReloader installs the function that builds a fresh snapshot during
// hot reload. It runs off the request path: it may read and verify
// arbitrarily large artifacts without affecting in-flight traffic,
// returning an error to keep the current generation serving. Call
// before the server starts handling requests.
func (s *Server) SetReloader(fn func(context.Context) (*Snapshot, error)) {
	s.reloader = fn
}

// Snapshot returns the current serving generation.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload builds a new snapshot through the configured reloader and
// atomically swaps it in. In-flight requests keep the generation they
// started with; requests admitted after the swap see the new one. On
// any failure — including corrupt artifacts, which the store-backed
// reloader quarantines internally — the current generation keeps
// serving and the error is reported to the caller and the stats.
// Single-flight: a reload while one is running returns
// ErrReloadInProgress without waiting.
func (s *Server) Reload(ctx context.Context) (*Snapshot, error) {
	if s.reloader == nil {
		return nil, ErrNoReloader
	}
	if !s.reloadMu.TryLock() {
		return nil, ErrReloadInProgress
	}
	defer s.reloadMu.Unlock()

	s.stats.reloads.Add(1)
	start := time.Now()
	snap, err := s.reloader(ctx)
	if err == nil && (snap == nil || snap.Extractor == nil) {
		err = fmt.Errorf("serve: reloader returned an empty snapshot")
	}
	elapsed := time.Since(start)
	if err != nil {
		s.stats.reloadFailed.Add(1)
		s.lastReload.Store(&ReloadOutcome{
			Outcome:   "failed",
			Error:     err.Error(),
			ElapsedMS: elapsed.Milliseconds(),
		})
		cur := s.snap.Load()
		s.logf("serve: reload failed after %v: %v (still serving generation %d, fingerprint %s)",
			elapsed.Round(time.Millisecond), err, cur.Generation, cur.Fingerprint)
		return nil, err
	}
	if snap.Fingerprint == "" {
		snap.Fingerprint = fingerprint(snap.Extractor)
	}
	old := s.publish(snap)
	s.stats.reloadOK.Add(1)
	s.lastReload.Store(&ReloadOutcome{
		Outcome:    "ok",
		Generation: snap.Generation,
		ElapsedMS:  elapsed.Milliseconds(),
	})
	s.logf("serve: reloaded generation %d in %v (fingerprint %s -> %s)",
		snap.Generation, elapsed.Round(time.Millisecond), old.Fingerprint, snap.Fingerprint)
	return snap, nil
}

// VerifyReload builds and fully verifies the next snapshot through the
// configured reloader without swapping it in — the serving generation
// is untouched. It exists for fleet orchestration: the router's
// shard-by-shard reload first verifies every shard's next generation
// (this call), and flips nothing anywhere unless all of them pass, so a
// half-upgraded fleet cannot happen. Shares the single-flight lock with
// Reload; returns the snapshot that would be served.
func (s *Server) VerifyReload(ctx context.Context) (*Snapshot, error) {
	if s.reloader == nil {
		return nil, ErrNoReloader
	}
	if !s.reloadMu.TryLock() {
		return nil, ErrReloadInProgress
	}
	defer s.reloadMu.Unlock()

	snap, err := s.reloader(ctx)
	if err == nil && (snap == nil || snap.Extractor == nil) {
		err = fmt.Errorf("serve: reloader returned an empty snapshot")
	}
	if err != nil {
		s.logf("serve: reload verification failed: %v (serving generation untouched)", err)
		return nil, err
	}
	if snap.Fingerprint == "" {
		snap.Fingerprint = fingerprint(snap.Extractor)
	}
	s.logf("serve: reload verification ok: generation %d ready (fingerprint %s)", snap.Generation, snap.Fingerprint)
	return snap, nil
}
