package ingest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/latency"
	"hsgf/internal/store"
)

// Defaults for Config fields left zero.
const (
	DefaultCompactEvery      = 64
	DefaultMaxBatchMutations = 4096
	DefaultMaxIndexEntries   = 65536
)

// ErrBatchInvalid marks a batch rejected by validation before anything
// was written: the WAL and the graph are untouched and the batch was
// not acked.
var ErrBatchInvalid = errors.New("ingest: invalid batch")

// Config configures an Engine.
type Config struct {
	// Store persists compacted ingest snapshots. Required.
	Store *store.Store
	// WALPath is the write-ahead log file; defaults to "ingest.wal"
	// inside the store directory.
	WALPath string
	// Opts is the census extraction configuration of the published
	// Extractors; Opts.MaxEdges is also the dirty-ball radius.
	Opts core.Options
	// CompactEvery folds the WAL into a snapshot generation after this
	// many applied batches; <= 0 means DefaultCompactEvery.
	CompactEvery int
	// MaxBatchMutations bounds one batch; <= 0 means
	// DefaultMaxBatchMutations.
	MaxBatchMutations int
	// MaxIndexEntries bounds the applied-batch idempotency index;
	// oldest sequences are evicted first. <= 0 means
	// DefaultMaxIndexEntries.
	MaxIndexEntries int
	// Log receives operational messages; nil discards them.
	Log func(format string, args ...any)
}

// Result describes one Apply outcome. For a replayed batch, Seq is the
// sequence the batch was originally applied at and DirtyRoots is nil;
// the state fields carry the current generation either way.
type Result struct {
	Seq      uint64
	BatchID  string
	Replayed bool
	// DirtyRoots is the batch's distance-≤emax ball: every root whose
	// census the batch can have changed (core.DirtySet).
	DirtyRoots []graph.NodeID
	Elapsed    time.Duration

	Graph      *graph.Graph
	Extractor  *core.Extractor
	Generation uint64
}

// Stats is a point-in-time snapshot of engine counters for
// /debug/stats and benchmarks.
type Stats struct {
	LastSeq          uint64 `json:"last_seq"`
	Applied          uint64 `json:"applied"`
	Replayed         uint64 `json:"replayed"`
	Rejected         uint64 `json:"rejected"`
	Compactions      uint64 `json:"compactions"`
	Generation       uint64 `json:"generation"`
	RecoveredRecords uint64 `json:"recovered_records"`
	WALBytes         int64  `json:"wal_bytes"`
	IndexEntries     int    `json:"index_entries"`
	// Failed reports a post-durability apply failure: the engine rejects
	// all further batches until a restart replays the WAL.
	Failed         bool    `json:"failed,omitempty"`
	LastDirtyRoots int     `json:"last_dirty_roots"`
	MaxDirtyRoots  int     `json:"max_dirty_roots"`
	ApplyP50MS     float64 `json:"apply_p50_ms"`
	ApplyP99MS     float64 `json:"apply_p99_ms"`
}

// Engine is the single-writer streaming-ingest core: it owns the
// mutable graph, the WAL, and the compaction cycle. It computes no
// feature rows; readers census the published graph on demand. Apply
// serialises writers behind one mutex; readers never take it — they
// consume the immutable (Graph, Extractor) pair the publish hook hands
// out, RCU-style.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	g       *graph.Graph
	ex      *core.Extractor
	wal     *store.WAL
	lastSeq uint64
	gen     uint64
	applied map[string]uint64
	// appliedOrder holds the applied-index batch IDs in ascending
	// sequence order, so eviction pops the oldest in O(1) instead of
	// scanning the whole map under the writer lock.
	appliedOrder []string
	since        int // batches since last compaction
	publish      func(Result)
	closed       bool
	// failed latches when an apply fails after its WAL record is durable:
	// the in-memory state and the log have diverged, and only a restart
	// (which replays the record) reconverges them.
	failed bool
	// fleetSeq is the highest router-assigned fleet sequence this engine
	// has applied (0 if none): the shard's gap-detection watermark. It is
	// derived from fleet batch IDs, which the snapshot's applied index
	// persists in full, so it survives compaction, eviction (oldest-first,
	// never the max), and restart.
	fleetSeq uint64

	stats        Stats
	applyLatency latency.Histogram
}

// Open loads (or seeds) the ingest state and replays the WAL tail.
//
// Recovery order: newest verified ingest snapshot (corrupt generations
// are quarantined and older ones tried), else seed() persisted as
// generation 1; then every WAL record with a sequence above the
// snapshot's watermark is re-applied. Records at or below the watermark
// are already folded — the crash window between a compaction's snapshot
// write and its WAL reset leaves them behind harmlessly. A sequence gap
// above the watermark means acked data was lost and is a hard error,
// not a silent skip.
func Open(cfg Config, seed func() (*graph.Graph, error)) (*Engine, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("ingest: Config.Store is required")
	}
	if cfg.WALPath == "" {
		cfg.WALPath = filepath.Join(cfg.Store.Dir(), "ingest.wal")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	if cfg.MaxBatchMutations <= 0 {
		cfg.MaxBatchMutations = DefaultMaxBatchMutations
	}
	if cfg.MaxIndexEntries <= 0 {
		cfg.MaxIndexEntries = DefaultMaxIndexEntries
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}

	e := &Engine{
		cfg:     cfg,
		applied: make(map[string]uint64),
	}

	state, gen, err := loadSnapshot(cfg.Store)
	switch {
	case err == nil:
		e.g, e.gen, e.lastSeq = state.g, gen, state.meta.LastSeq
		for id, seq := range state.meta.Batches {
			e.applied[id] = seq
			e.appliedOrder = append(e.appliedOrder, id)
			e.noteFleetSeq(id)
		}
		sort.Slice(e.appliedOrder, func(i, j int) bool {
			return e.applied[e.appliedOrder[i]] < e.applied[e.appliedOrder[j]]
		})
	case errors.Is(err, store.ErrNotFound):
		if seed == nil {
			return nil, fmt.Errorf("ingest: no snapshot and no seed source")
		}
		g, err := seed()
		if err != nil {
			return nil, fmt.Errorf("ingest: seed: %w", err)
		}
		e.g = g
		if err := e.writeSnapshot(); err != nil {
			return nil, fmt.Errorf("ingest: persist seed snapshot: %w", err)
		}
		cfg.Log("ingest: seeded generation %d from scratch (%s)", e.gen, g)
	default:
		return nil, err
	}

	if e.ex, err = core.NewExtractor(e.g, cfg.Opts); err != nil {
		return nil, err
	}

	wal, records, err := store.OpenWAL(cfg.WALPath)
	if err != nil {
		return nil, err
	}
	e.wal = wal
	for _, rec := range records {
		if rec.Seq <= e.lastSeq {
			continue // already folded into the snapshot
		}
		if rec.Seq != e.lastSeq+1 {
			wal.Close()
			return nil, fmt.Errorf("%w: WAL skips from sequence %d to %d — acked records are missing", store.ErrCorrupt, e.lastSeq, rec.Seq)
		}
		batchID, muts, err := graph.DecodeMutations(rec.Payload)
		if err != nil {
			// CRC-valid but undecodable: this was acked, so refusing to
			// start beats silently dropping it.
			wal.Close()
			return nil, fmt.Errorf("%w: WAL record %d does not decode: %v", store.ErrCorrupt, rec.Seq, err)
		}
		if _, err := e.applyLocked(batchID, muts, rec.Seq); err != nil {
			wal.Close()
			return nil, fmt.Errorf("ingest: replaying WAL record %d (batch %q): %w", rec.Seq, batchID, err)
		}
		e.stats.RecoveredRecords++
		e.since++
	}
	if e.stats.RecoveredRecords > 0 {
		cfg.Log("ingest: replayed %d WAL records, watermark %d", e.stats.RecoveredRecords, e.lastSeq)
	}
	return e, nil
}

// SetPublish installs the hook that receives each Apply's Result while
// the engine mutex is held — successive publishes are therefore ordered
// by sequence number, which is what lets a server swap serving
// snapshots without ever publishing a stale one over a fresher one.
// Call before serving traffic.
//
// Contract: a replayed ack (Result.Replayed) carries the engine's
// CURRENT state pointers — the identical Extractor the hook saw on the
// last genuine publish, never a rebuilt copy. Subscribers use that
// pointer identity to recognise a no-op republish and keep derived
// state (the serving layer's feature-row cache above all) intact
// through duplicate-replay storms.
func (e *Engine) SetPublish(fn func(Result)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publish = fn
}

// State returns the current (graph, extractor, nil, generation,
// watermark) under the engine lock. The engine keeps no feature rows,
// so the third result is always nil.
func (e *Engine) State() (*graph.Graph, *core.Extractor, *core.FeatureSet, uint64, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.g, e.ex, nil, e.gen, e.lastSeq
}

// Apply validates, logs, and applies one mutation batch, returning
// after the batch is durable and visible to the publish hook.
//
// Semantics:
//   - A batch ID already in the idempotency index is acked as Replayed
//     without touching anything.
//   - A batch with any invalid mutation is rejected whole
//     (ErrBatchInvalid); nothing is written, nothing is acked.
//   - Otherwise the batch is appended to the WAL and fsynced (the ack
//     point — a crash after Apply returns cannot lose it), then the
//     graph is rebuilt, its dirty ball computed, and the new state
//     published.
//
// Writers are serialised; the context is only consulted before the
// durability point (once the record is fsynced the apply always
// finishes, otherwise the WAL and the in-memory state would diverge).
func (e *Engine) Apply(ctx context.Context, batchID string, muts []graph.Mutation) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Result{}, fmt.Errorf("ingest: engine closed")
	}
	if e.failed {
		return Result{}, fmt.Errorf("ingest: engine failed after a durable append and requires a restart (boot replay reconverges the WAL and the in-memory state)")
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if batchID == "" || len(batchID) > graph.MaxBatchID {
		e.stats.Rejected++
		return Result{}, fmt.Errorf("%w: batch id must be 1-%d bytes", ErrBatchInvalid, graph.MaxBatchID)
	}
	if len(muts) == 0 || len(muts) > e.cfg.MaxBatchMutations {
		e.stats.Rejected++
		return Result{}, fmt.Errorf("%w: batch must carry 1-%d mutations, got %d", ErrBatchInvalid, e.cfg.MaxBatchMutations, len(muts))
	}
	if seq, ok := e.applied[batchID]; ok {
		e.stats.Replayed++
		res := e.currentResult(batchID, seq)
		res.Replayed = true
		if e.publish != nil {
			// Replays publish too: after recovery the server may not
			// have seen any state yet.
			e.publish(res)
		}
		return res, nil
	}

	start := time.Now()
	// Stage against the current graph first: a batch that fails
	// validation must leave no trace, including in the WAL.
	overlay := graph.NewOverlay(e.g)
	for i, m := range muts {
		if err := overlay.Apply(m); err != nil {
			e.stats.Rejected++
			return Result{}, fmt.Errorf("%w: mutation %d: %v", ErrBatchInvalid, i, err)
		}
	}
	payload, err := graph.EncodeMutations(batchID, muts)
	if err != nil {
		e.stats.Rejected++
		return Result{}, fmt.Errorf("%w: %v", ErrBatchInvalid, err)
	}

	seq := e.lastSeq + 1
	if err := e.wal.Append(seq, payload); err != nil {
		return Result{}, fmt.Errorf("ingest: WAL append: %w", err)
	}
	// Durability point: from here the batch is acked-able and the apply
	// must complete.
	res, err := e.applyOverlay(batchID, overlay, seq)
	if err != nil {
		// The staged overlay validated, so a failure here is resource
		// exhaustion or a bug. The WAL record is durable but was not
		// applied: e.lastSeq and wal.LastSeq have diverged, so latch the
		// failure instead of wedging every later Apply on the WAL's
		// seq-monotonicity check with a misleading error. Restart replays
		// the record and recovers.
		e.failed = true
		return Result{}, fmt.Errorf("ingest: apply after durable append (engine requires a restart; WAL record %d replays on boot): %w", seq, err)
	}
	res.Elapsed = time.Since(start)
	e.applyLatency.Observe(res.Elapsed)
	if e.since++; e.since >= e.cfg.CompactEvery {
		if err := e.compactLocked(); err != nil {
			// Compaction failure is not batch failure: the WAL still
			// holds everything. Log and carry on.
			e.cfg.Log("ingest: compaction failed (WAL keeps growing): %v", err)
		}
	}
	res.Generation = e.gen
	if e.publish != nil {
		e.publish(res)
	}
	return res, nil
}

// LatchFailure forces the engine into its post-durability failed state:
// every later Apply is refused and Stats/readiness report the failure
// until a restart replays the WAL. It exists so fault-injection tests
// (the serving tier's readiness path above all) can exercise the
// latched state without arranging a real post-durability apply failure;
// production code never calls it.
func (e *Engine) LatchFailure() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed = true
}

// applyLocked stages and applies an already-durable batch (WAL replay).
func (e *Engine) applyLocked(batchID string, muts []graph.Mutation, seq uint64) (Result, error) {
	overlay := graph.NewOverlay(e.g)
	for i, m := range muts {
		if err := overlay.Apply(m); err != nil {
			return Result{}, fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return e.applyOverlay(batchID, overlay, seq)
}

// applyOverlay materialises the staged overlay, computes the dirty
// ball, and installs the new state. Caller holds e.mu and has made the
// batch durable.
func (e *Engine) applyOverlay(batchID string, overlay *graph.Overlay, seq uint64) (Result, error) {
	newG, err := overlay.Materialize()
	if err != nil {
		return Result{}, err
	}
	ex, err := core.NewExtractor(newG, e.cfg.Opts)
	if err != nil {
		return Result{}, err
	}
	dirty := core.DirtySet(e.g, newG, overlay.Touched(), e.cfg.Opts.MaxEdges)

	e.g, e.ex = newG, ex
	e.lastSeq = seq
	e.applied[batchID] = seq
	e.appliedOrder = append(e.appliedOrder, batchID)
	e.noteFleetSeq(batchID)
	e.evictIndex()
	e.stats.Applied++
	e.stats.LastDirtyRoots = len(dirty)
	if len(dirty) > e.stats.MaxDirtyRoots {
		e.stats.MaxDirtyRoots = len(dirty)
	}
	return Result{
		Seq:        seq,
		BatchID:    batchID,
		DirtyRoots: dirty,
		Graph:      newG,
		Extractor:  ex,
		Generation: e.gen,
	}, nil
}

// currentResult packages the current state for a replayed ack. Caller
// holds e.mu.
func (e *Engine) currentResult(batchID string, seq uint64) Result {
	return Result{
		Seq:        seq,
		BatchID:    batchID,
		Graph:      e.g,
		Extractor:  e.ex,
		Generation: e.gen,
	}
}

// evictIndex bounds the idempotency index, dropping oldest sequences
// first. appliedOrder is maintained in ascending sequence order, so
// each eviction is O(1) — a full-map scan here would run under the
// writer lock on every applied batch once the index is at capacity.
// Caller holds e.mu.
func (e *Engine) evictIndex() {
	for len(e.applied) > e.cfg.MaxIndexEntries && len(e.appliedOrder) > 0 {
		id := e.appliedOrder[0]
		e.appliedOrder[0] = "" // release the string to GC
		e.appliedOrder = e.appliedOrder[1:]
		delete(e.applied, id)
	}
}

// writeSnapshot persists the current state as the next ingest
// generation. Caller holds e.mu (or is still single-threaded in Open).
func (e *Engine) writeSnapshot() error {
	batches := make(map[string]uint64, len(e.applied))
	for id, seq := range e.applied {
		batches[id] = seq
	}
	sections, err := snapshotSections(&ingestState{
		meta: ingestMeta{Schema: ingestSchema, LastSeq: e.lastSeq, Batches: batches},
		g:    e.g,
	})
	if err != nil {
		return err
	}
	gen, err := e.cfg.Store.Write(ArtifactIngest, sections)
	if err != nil {
		return err
	}
	e.gen = gen
	return nil
}

// compactLocked folds the WAL into a fresh snapshot generation, then
// truncates the log. Crash-safe in both windows: before the snapshot
// rename the old snapshot + full WAL recover everything; between the
// rename and the WAL reset, replay skips the already-folded records by
// watermark.
func (e *Engine) compactLocked() error {
	if err := e.writeSnapshot(); err != nil {
		return err
	}
	if err := e.wal.Reset(); err != nil {
		return err
	}
	e.since = 0
	e.stats.Compactions++
	e.cfg.Log("ingest: compacted through sequence %d into generation %d", e.lastSeq, e.gen)
	return nil
}

// Stats returns a point-in-time copy of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.LastSeq = e.lastSeq
	s.Generation = e.gen
	s.WALBytes = e.wal.Size()
	s.IndexEntries = len(e.applied)
	s.Failed = e.failed
	p50, _ := e.applyLatency.Quantile(0.50)
	p99, _ := e.applyLatency.Quantile(0.99)
	s.ApplyP50MS = float64(p50) / float64(time.Millisecond)
	s.ApplyP99MS = float64(p99) / float64(time.Millisecond)
	return s
}

// Close closes the WAL. Everything acked is already durable; Close
// performs no final compaction (boot replay finishes the job), so a
// crash and a clean shutdown recover identically.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.wal.Close()
}
