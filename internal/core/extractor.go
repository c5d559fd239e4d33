package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/graph"
)

// KeyMode selects how census keys are derived from subgraph encodings.
type KeyMode int

const (
	// RollingHash keys the census by the incrementally maintained rolling
	// hash of the characteristic sequence (paper §3.2). This is the
	// default and the fast path.
	RollingHash KeyMode = iota
	// CanonicalString materialises the canonical sequence at every
	// emission and keys the census by a digest of it. This is the
	// "convert to string and hash the string" strategy the paper improves
	// upon; it is retained as the comparator for the hashing ablation and
	// as a correctness oracle in tests.
	CanonicalString
)

func (m KeyMode) String() string {
	switch m {
	case RollingHash:
		return "rolling-hash"
	case CanonicalString:
		return "canonical-string"
	default:
		return fmt.Sprintf("KeyMode(%d)", int(m))
	}
}

// Options configures subgraph feature extraction.
type Options struct {
	// MaxEdges is emax, the maximum number of edges per enumerated
	// subgraph. The paper uses 5 or 6. Required, must be >= 1.
	MaxEdges int
	// MaxDegree is dmax, the hub cutoff: nodes with degree > MaxDegree
	// are added to subgraphs when discovered but never explored beyond.
	// <= 0 means unlimited (the paper's dmax = ∞).
	MaxDegree int
	// MaskRootLabel replaces the root's label with an artificial label
	// during extraction so the feature does not leak the root's own class
	// (paper §4.3.2). The artificial label occupies one extra label slot.
	MaskRootLabel bool
	// KeyMode selects rolling-hash (default) or canonical-string keys.
	KeyMode KeyMode
	// DisableLeafBatching turns off the heterogeneous optimization
	// heuristic that counts same-labelled leaf attachments in one step.
	// Only useful for ablation benchmarks; results are identical.
	DisableLeafBatching bool
	// MaxSubgraphsPerRoot, when positive, truncates a root's census once
	// that many subgraph occurrences have been counted. Runaway roots —
	// typically hubs, to which the dmax heuristic does not apply — then
	// return partial censuses flagged Truncated instead of stalling the
	// extraction (the Table 3 outlier mitigation as a hard bound).
	MaxSubgraphsPerRoot int64
	// RootDeadline, when positive, bounds the wall-clock enumeration time
	// of each individual root. A root that exceeds it returns its partial
	// census flagged FlagDeadlineExceeded while the rest of the run
	// proceeds — the per-root analogue of whole-run context cancellation,
	// sized for the heavy right tail of the paper's Table 3 distribution.
	RootDeadline time.Duration
	// LPTRootOrder dispatches roots to parallel census workers in
	// descending-degree order (longest-processing-time-first list
	// scheduling, with degree as the cost proxy). On skewed graphs this
	// keeps one late-arriving hub root from serialising the tail of a
	// parallel extraction. Results are unaffected — output stays aligned
	// with the caller's root order — so this is purely a scheduling hint.
	LPTRootOrder bool
}

// DefaultOptions returns the paper's label-prediction configuration:
// emax = 5, no hub cutoff, root label masked.
func DefaultOptions() Options {
	return Options{MaxEdges: 5, MaskRootLabel: true}
}

// Extractor computes heterogeneous subgraph features over one graph. It is
// safe for concurrent use; per-goroutine state lives in workers. On an
// edge-typed graph the features are direction- and edge-label-aware:
// the encoding counts neighbours per (label, incidence code).
type Extractor struct {
	g    *graph.Graph
	opts Options
	k    int // label slots (graph labels + 1 if masking)
	m    int // incidence types (graph.NumIncidenceTypes; 1 when untyped)
	pows *powerTable

	mu     sync.Mutex
	repr   map[uint64]Sequence
	strs   map[uint64]string // memoised EncodingString renders
	panics []PanicRecord

	// pool recycles census workers across roots, calls, and — via the
	// serving daemon — requests. A worker carries O(V+E) persistent
	// state (nodePos, edgeState) plus its counter table and arenas;
	// rebuilding that per call is exactly the per-request O(V+E) cost
	// the pool amortises away. Checked-out workers get the run's limit
	// overrides applied in getWorker and are verified clean in putWorker.
	pool sync.Pool

	hooks *faultHooks // fault-injection seam, nil outside tests
}

// PanicRecord describes one recovered census-worker panic: the root it
// occurred on, the panic value, and the goroutine stack at recovery.
type PanicRecord struct {
	Root  graph.NodeID
	Value string
	Stack string
}

// NewExtractor validates opts and returns an extractor for g.
func NewExtractor(g *graph.Graph, opts Options) (*Extractor, error) {
	if opts.MaxEdges < 1 {
		return nil, fmt.Errorf("core: MaxEdges must be >= 1, got %d", opts.MaxEdges)
	}
	if g.NumLabels() == 0 && g.NumNodes() > 0 {
		return nil, fmt.Errorf("core: graph has nodes but no label alphabet")
	}
	k := g.NumLabels()
	if opts.MaskRootLabel {
		k++
	}
	m := g.NumIncidenceTypes()
	return &Extractor{
		g:    g,
		opts: opts,
		k:    k,
		m:    m,
		pows: newPowerTable(k, m),
		// Pre-sized: vocabularies of real networks run to hundreds of
		// distinct encodings, so early merges should not rehash.
		repr: make(map[uint64]Sequence, 256),
		strs: make(map[uint64]string, 256),
	}, nil
}

// Graph returns the graph the extractor operates on.
func (e *Extractor) Graph() *graph.Graph { return e.g }

// Options returns the extraction options.
func (e *Extractor) Options() Options { return e.opts }

// LabelSlots returns the number of label slots in the encoding: the
// graph's label count, plus one for the artificial root label when
// masking is enabled.
func (e *Extractor) LabelSlots() int { return e.k }

// SlotName returns the display name of encoding label slot l, which is
// either a graph label name or the masked-root marker.
func (e *Extractor) SlotName(l int) string {
	if l == e.g.NumLabels() && e.opts.MaskRootLabel {
		return MaskedLabelName
	}
	return e.g.Alphabet().Name(graph.Label(l))
}

// Census extracts the subgraph census for a single root node. Unlike the
// parallel CensusAll variants it does not isolate panics: a fault in the
// enumeration propagates to the caller (and the worker, whose state is
// then suspect, is deliberately not returned to the pool).
func (e *Extractor) Census(root graph.NodeID) *Census {
	w := e.getWorker(censusRun{})
	c := w.census(root)
	e.putWorker(w)
	return c
}

// CensusAll extracts censuses for all roots using the given number of
// parallel workers (<= 0 selects GOMAXPROCS). Results are aligned with
// roots. Enumeration is embarrassingly parallel by root node: workers
// share the read-only graph and keep private O(V + E) state.
func (e *Extractor) CensusAll(roots []graph.NodeID, workers int) []*Census {
	cs, _ := e.censusAll(roots, workers, censusRun{})
	return cs
}

// CensusAllTimed is CensusAll but additionally reports the wall-clock
// extraction time of each root, for runtime evaluations (paper Table 3).
func (e *Extractor) CensusAllTimed(roots []graph.NodeID, workers int) ([]*Census, []time.Duration) {
	return e.censusAll(roots, workers, censusRun{timed: true})
}

// CensusAllContext is CensusAll with cooperative cancellation: when ctx
// is cancelled, in-flight censuses stop at their next enumeration step
// and are returned truncated (Census.Truncated, FlagCancelled), pending
// roots are left nil, and ctx.Err() is returned. Workers poll the
// cancellation flag, so even a single runaway hub root stops promptly.
func (e *Extractor) CensusAllContext(ctx context.Context, roots []graph.NodeID, workers int) ([]*Census, error) {
	return e.CensusAllWithLimits(ctx, roots, workers, RootLimits{})
}

// RootLimits is a per-call override of the extractor's per-root
// enumeration bounds, for callers that serve heterogeneous request
// classes over one shared extractor (the serving daemon): a zero field
// keeps the corresponding Options value.
type RootLimits struct {
	// Budget overrides Options.MaxSubgraphsPerRoot when > 0.
	Budget int64
	// Deadline overrides Options.RootDeadline when > 0.
	Deadline time.Duration
}

// CensusAllWithLimits is CensusAllContext with per-call root limits:
// every root of this extraction is bounded by limits (falling back to
// the extractor's Options for zero fields) without rebuilding the
// extractor or discarding its decoded vocabulary. Truncation is
// reported per root through the usual CensusFlag taxonomy.
func (e *Extractor) CensusAllWithLimits(ctx context.Context, roots []graph.NodeID, workers int, limits RootLimits) ([]*Census, error) {
	stop, release := stopOnCancel(ctx)
	defer release()
	cs, _ := e.censusAll(roots, workers, censusRun{stop: stop, limits: limits})
	return cs, ctx.Err()
}

// stopOnCancel returns a cancellation flag for censusRun.stop that is
// set once ctx is done, and the function that detaches it from ctx; the
// caller defers the latter.
func stopOnCancel(ctx context.Context) (*atomic.Bool, func() bool) {
	stop := new(atomic.Bool)
	return stop, context.AfterFunc(ctx, func() { stop.Store(true) })
}

// censusRun bundles the optional behaviours of a pooled extraction.
type censusRun struct {
	timed  bool         // record per-root wall-clock times
	stop   *atomic.Bool // cooperative cancellation flag, may be nil
	limits RootLimits   // per-run override of per-root bounds
	// done, when non-nil, is invoked from worker goroutines after each
	// root completes (the checkpoint collector). The worker's repr is
	// merged before the callback, so every key of the delivered census is
	// already decodable via Extractor.Decode.
	done func(i int, c *Census)
}

func (e *Extractor) censusAll(roots []graph.NodeID, workers int, run censusRun) ([]*Census, []time.Duration) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	out := make([]*Census, len(roots))
	var times []time.Duration
	if run.timed {
		times = make([]time.Duration, len(roots))
	}
	if len(roots) == 0 {
		return out, times
	}

	// Dispatch is a chunked atomic counter over a root order, not a
	// channel: claiming work is one atomic add per chunk instead of a
	// channel send/receive per root, and the producer goroutine (and its
	// per-root scheduler wakeups) disappears entirely. order == nil means
	// identity; under LPT it is the indices sorted by descending degree,
	// claimed one at a time so the largest roots start first.
	order := e.lptOrder(roots, workers)
	chunk := 1
	if order == nil {
		chunk = dispatchChunk(len(roots), workers)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.getWorker(run)
		claim:
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(roots) {
					break
				}
				hi := lo + chunk
				if hi > len(roots) {
					hi = len(roots)
				}
				for pos := lo; pos < hi; pos++ {
					if run.stop != nil && run.stop.Load() {
						break claim // stop claiming; pending roots stay nil
					}
					i := pos
					if order != nil {
						i = order[pos]
					}
					start := time.Now()
					c := e.safeCensus(w, roots[i])
					if c.Flags&FlagPanicked != 0 {
						// The worker's persistent state is suspect after an
						// unwound enumeration; keep what it learned but
						// replace it wholesale (it never re-enters the pool).
						e.flushRepr(w)
						w = e.getWorker(run)
					}
					out[i] = c
					if run.timed {
						times[i] = time.Since(start)
					}
					if run.done != nil {
						e.flushRepr(w)
						run.done(i, c)
					}
				}
			}
			e.putWorker(w)
		}()
	}
	wg.Wait()
	return out, times
}

// dispatchChunk sizes the atomic-counter claim: large enough to amortise
// the shared-counter contention over many roots, small enough that the
// run's tail is not serialised behind one worker's oversized last chunk.
func dispatchChunk(roots, workers int) int {
	c := roots / (workers * 8)
	if c < 1 {
		return 1
	}
	if c > 64 {
		return 64
	}
	return c
}

// lptOrder returns the longest-processing-time dispatch order — root
// indices sorted by descending degree — or nil when LPT is disabled or
// cannot help (a single worker processes in order regardless).
func (e *Extractor) lptOrder(roots []graph.NodeID, workers int) []int {
	if !e.opts.LPTRootOrder || workers <= 1 {
		return nil
	}
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := e.g.Degree(roots[order[a]]), e.g.Degree(roots[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b] // stable for equal degrees
	})
	return order
}

// getWorker checks a warm census worker out of the pool (or builds the
// first one), then applies this run's overrides: cancellation flag,
// fault hooks, and per-root limits, re-derived from Options so an
// override from a previous checkout can never leak into this one.
func (e *Extractor) getWorker(run censusRun) *worker {
	w, _ := e.pool.Get().(*worker)
	if w == nil {
		w = newWorker(e.g, e.opts, e.k, e.m, e.pows)
	}
	w.stop = run.stop
	w.hooks = e.hooks
	w.budget = e.opts.MaxSubgraphsPerRoot
	w.deadline = e.opts.RootDeadline
	if run.limits.Budget > 0 {
		w.budget = run.limits.Budget
	}
	if run.limits.Deadline > 0 {
		w.deadline = run.limits.Deadline
	}
	return w
}

// putWorker flushes the worker's decoded vocabulary and returns it to
// the pool — unless its state is visibly dirty (an enumeration unwound
// without restoring its invariants), in which case it is dropped: a
// fresh worker is cheaper than a corrupted census.
func (e *Extractor) putWorker(w *worker) {
	e.flushRepr(w)
	if !w.clean() {
		return
	}
	w.stop = nil
	w.hooks = nil
	e.pool.Put(w)
}

// flushRepr merges the worker's decoded vocabulary into the extractor.
// repr only grows, so when nothing was added since the last flush the
// whole merge (and its lock) is skipped — the steady-state case once a
// worker has seen the graph's vocabulary.
func (e *Extractor) flushRepr(w *worker) {
	if len(w.repr) == w.reprMerged {
		return
	}
	e.mergeRepr(w.repr)
	w.reprMerged = len(w.repr)
}

// safeCensus runs one root's census with panic isolation: a panicking
// root is recovered, recorded on the extractor with its root ID and
// stack, and returned as an empty census flagged FlagPanicked so the
// pool keeps draining the remaining roots.
func (e *Extractor) safeCensus(w *worker, root graph.NodeID) (c *Census) {
	defer func() {
		if r := recover(); r != nil {
			e.recordPanic(PanicRecord{
				Root:  root,
				Value: fmt.Sprint(r),
				Stack: string(debug.Stack()),
			})
			c = &Census{
				Root:      root,
				Counts:    map[uint64]int64{},
				Truncated: true,
				Flags:     FlagPanicked,
			}
		}
	}()
	return w.census(root)
}

func (e *Extractor) recordPanic(p PanicRecord) {
	e.mu.Lock()
	e.panics = append(e.panics, p)
	e.mu.Unlock()
}

// Panics returns the census-worker panics recovered so far, in recovery
// order. A healthy extraction returns an empty slice.
func (e *Extractor) Panics() []PanicRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]PanicRecord(nil), e.panics...)
}

func (e *Extractor) mergeRepr(local map[uint64]Sequence) {
	// Workers whose whole vocabulary is already known merge empty or
	// tiny maps; skipping the lock for the empty case keeps the
	// many-roots path free of needless contention.
	if len(local) == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, v := range local {
		if _, ok := e.repr[k]; !ok {
			e.repr[k] = v
		}
	}
}

// Decode returns the canonical characteristic sequence behind a census
// key, if any census produced by this extractor has seen it.
func (e *Extractor) Decode(key uint64) (Sequence, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.repr[key]
	return s, ok
}

// EncodingString renders the sequence behind key in the paper's compact
// notation (e.g. "z010z010y002") — on a typed graph in the typed
// notation (e.g. "p|p/cites<:2") — or "?<key>" if unknown. Renders are
// memoised per key: the serving daemon calls this for every count of
// every response row, so steady state is one lock + one map hit, not a
// fresh string build. Unknown keys are not cached — the key may become
// decodable after a later extraction.
func (e *Extractor) EncodingString(key uint64) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if str, ok := e.strs[key]; ok {
		return str
	}
	s, ok := e.repr[key]
	if !ok {
		return fmt.Sprintf("?%x", key)
	}
	var str string
	if e.g.Typed() {
		str = s.typedString(e.SlotName, e.g.IncidenceName)
	} else {
		str = s.String(e.SlotName)
	}
	e.strs[key] = str
	return str
}
