package core

import (
	"math"
	"strings"
	"sync/atomic"
	"time"

	"hsgf/internal/graph"
)

// CensusFlag records why the enumeration of one root stopped early. A
// census may carry several flags (a root can hit its deadline while the
// run is being cancelled); a zero value means the census is complete.
type CensusFlag uint8

const (
	// FlagBudgetExceeded: the root hit Options.MaxSubgraphsPerRoot and
	// Counts is a prefix census.
	FlagBudgetExceeded CensusFlag = 1 << iota
	// FlagDeadlineExceeded: the root's wall-clock Options.RootDeadline
	// elapsed mid-enumeration.
	FlagDeadlineExceeded
	// FlagCancelled: the whole extraction run was cancelled (context
	// cancellation) while this root was in flight.
	FlagCancelled
	// FlagPanicked: the census worker panicked on this root. Counts is
	// empty; the panic is recorded on the extractor (Extractor.Panics).
	FlagPanicked
	// FlagShardUnavailable: in the sharded serving tier, the shard that
	// owns this root was unreachable past retries and failover, so the
	// row is empty. Set only by the router (internal/router) — a
	// single-process extraction never produces it. Distinct from
	// FlagCancelled so clients can tell "the fleet is degraded, retry
	// this root" from "my own deadline expired".
	FlagShardUnavailable
)

// String renders the flag set as a "|"-joined list, or "ok" when empty.
func (f CensusFlag) String() string {
	if f == 0 {
		return "ok"
	}
	var parts []string
	if f&FlagBudgetExceeded != 0 {
		parts = append(parts, "budget-exceeded")
	}
	if f&FlagDeadlineExceeded != 0 {
		parts = append(parts, "deadline-exceeded")
	}
	if f&FlagCancelled != 0 {
		parts = append(parts, "cancelled")
	}
	if f&FlagPanicked != 0 {
		parts = append(parts, "panicked")
	}
	if f&FlagShardUnavailable != 0 {
		parts = append(parts, "shard-unavailable")
	}
	return strings.Join(parts, "|")
}

// Census is the result of enumerating all connected subgraphs with at most
// emax edges around one root node: a count per subgraph type.
type Census struct {
	// Root is the node the census was extracted for.
	Root graph.NodeID
	// Counts maps an encoding key to the number of distinct subgraphs
	// around Root whose encoding has that key. In the default rolling-hash
	// key mode, the key is the rolling hash of the characteristic
	// sequence; in canonical-string mode it is an FNV-64a digest of the
	// canonical sequence. Use Extractor.Decode to recover the sequence.
	Counts map[uint64]int64
	// Subgraphs is the total number of subgraph occurrences counted,
	// i.e. the sum over Counts.
	Subgraphs int64
	// Truncated reports that enumeration stopped early — the root hit
	// Options.MaxSubgraphsPerRoot or Options.RootDeadline, the extraction
	// context was cancelled, or the worker panicked — so Counts is a
	// prefix census, not the full one. Flags carries the precise cause.
	Truncated bool
	// Flags is the structured stop-cause taxonomy; zero when complete.
	Flags CensusFlag
}

// edge state bits used by the census worker.
const (
	stateInSubgraph uint8 = 1 << iota
	stateBanned
	stateListed
)

// cand is a candidate extension edge: id names the edge, from is the
// endpoint that was inside the subgraph when the candidate was listed,
// and to is the other endpoint (which may or may not have joined the
// subgraph since). On a typed graph the incidence codes at both ends
// derive from (id, from); see cols.
type cand struct {
	from, to graph.NodeID
	id       graph.EdgeID
}

// seg is a half-open window [lo, hi) into the shared candidate stack.
type seg struct{ lo, hi int }

// worker holds the per-goroutine mutable state of the census. Per the
// paper's parallel space analysis (§3.2), each worker needs O(V) private
// state while the O(E) adjacency structure is shared read-only; this
// implementation additionally keeps one byte per edge of private state in
// exchange for O(1) candidate bookkeeping.
type worker struct {
	g      *graph.Graph
	opts   Options
	k      int // label slots
	m      int // incidence types, 1 unless the graph is typed
	stride int // typed degrees per subgraph node, k·m
	pows   *powerTable

	maxEdges int
	dmax     int

	nodePos   []int32 // node -> position in subgraph arrays, -1 if absent
	edgeState []uint8

	// Subgraph under construction. Positions 0..len(nodes)-1 are live.
	nodes   []graph.NodeID
	slabels []int32  // label slot per subgraph position (root may be masked)
	tv      []int32  // typed degrees, stride k·m, aligned with nodes
	rv      []uint64 // raw rolling values, aligned with nodes
	hash    uint64   // Σ mix(rv) over subgraph nodes
	edges   int

	// ext is a shared candidate stack. A frame's candidate window is a
	// list of [lo, hi) segments of ext: the unprocessed remainders of all
	// ancestor windows plus the frame's own freshly listed edges. Sharing
	// segments instead of copying keeps frame setup O(depth) even at
	// high-degree nodes. segArena[d] is the reusable segment list for the
	// frame at depth d.
	ext      []cand
	segArena [][]seg

	root graph.NodeID
	// tab is the reusable open-addressing census counter, epoch-cleared
	// per root; the per-root Counts map is materialised from it once at
	// census end, so the emission hot path never touches a Go map.
	tab *counterTable
	// zeroRow is a stride-wide all-zero row appended into tv when a node
	// joins the subgraph; appending from it avoids the temp-slice
	// allocation of make([]int32, stride) per fresh node.
	zeroRow    []int32
	repr       map[uint64]Sequence // first-seen canonical form per key
	reprMerged int                 // len(repr) at the last flush into the extractor
	emissions  int64

	budget    int64         // per-root emission cap, 0 = unlimited
	deadline  time.Duration // per-root wall-clock budget, 0 = unlimited
	rootStart time.Time     // census start, set when deadline > 0
	stop      *atomic.Bool  // cooperative cancellation, may be nil
	hooks     *faultHooks   // fault-injection seam, nil outside tests
	steps     uint64        // candidate steps since census start
	aborted   bool
	abortWhy  CensusFlag
}

// faultHooks is the deterministic fault-injection seam threaded into
// census workers by tests: onRootStart fires once per root before
// enumeration, onStep at every periodic poll point (every pollInterval
// candidate steps). Either hook may panic, sleep, or cancel to simulate
// worker faults exactly where they would occur in production.
type faultHooks struct {
	onRootStart func(root graph.NodeID)
	onStep      func(root graph.NodeID, step uint64)
}

// pollInterval is the candidate-step period of the expensive abort
// checks (cross-goroutine stop flag, wall clock, injected faults).
const pollInterval = 1024

// shouldAbort is polled at every candidate step; the (cheap) budget
// check runs always, the cross-goroutine stop flag, the per-root
// deadline clock and the fault seam only periodically.
func (w *worker) shouldAbort() bool {
	if w.aborted {
		return true
	}
	if w.budget > 0 && w.emissions >= w.budget {
		w.abort(FlagBudgetExceeded)
		return true
	}
	w.steps++
	if w.steps&(pollInterval-1) != 0 {
		return false
	}
	if w.hooks != nil && w.hooks.onStep != nil {
		w.hooks.onStep(w.root, w.steps)
	}
	if w.stop != nil && w.stop.Load() {
		w.abort(FlagCancelled)
		return true
	}
	if w.deadline > 0 && time.Since(w.rootStart) > w.deadline {
		w.abort(FlagDeadlineExceeded)
		return true
	}
	return false
}

func (w *worker) abort(why CensusFlag) {
	w.aborted = true
	w.abortWhy |= why
}

func newWorker(g *graph.Graph, opts Options, k, m int, pows *powerTable) *worker {
	w := &worker{
		g:        g,
		opts:     opts,
		k:        k,
		m:        m,
		stride:   k * m,
		pows:     pows,
		maxEdges: opts.MaxEdges,
		dmax:     opts.MaxDegree,
		budget:   opts.MaxSubgraphsPerRoot,
		deadline: opts.RootDeadline,
	}
	if w.dmax <= 0 {
		w.dmax = math.MaxInt
	}
	w.nodePos = make([]int32, g.NumNodes())
	for i := range w.nodePos {
		w.nodePos[i] = -1
	}
	w.edgeState = make([]uint8, g.NumEdges())
	maxNodes := opts.MaxEdges + 1
	w.nodes = make([]graph.NodeID, 0, maxNodes)
	w.slabels = make([]int32, 0, maxNodes)
	w.tv = make([]int32, 0, maxNodes*w.stride)
	w.rv = make([]uint64, 0, maxNodes)
	w.zeroRow = make([]int32, w.stride)
	w.tab = newCounterTable(counterMinSize)
	w.repr = make(map[uint64]Sequence)
	w.segArena = make([][]seg, opts.MaxEdges+1)
	for d := range w.segArena {
		w.segArena[d] = make([]seg, 0, opts.MaxEdges+2)
	}
	return w
}

// clean reports whether the worker's reusable state is back at its
// between-roots invariant: no subgraph edges, an empty candidate stack,
// and at most the last root left in the arenas with its nodePos entry
// released. census restores (or wholesale rebuilds) the O(V+E) arrays
// itself on every exit path except a panic unwind, and any panic inside
// the enumeration leaves live candidates behind, so these O(1) checks
// distinguish a healthy worker from one that must not be pooled.
func (w *worker) clean() bool {
	if w.edges != 0 || len(w.ext) != 0 || len(w.nodes) > 1 {
		return false
	}
	for _, v := range w.nodes { // at most one entry
		if w.nodePos[v] >= 0 {
			return false
		}
	}
	return true
}

// census runs the full enumeration for one root and returns its counts.
func (w *worker) census(root graph.NodeID) *Census {
	w.root = root
	w.tab.reset()
	w.emissions = 0
	w.steps = 0
	w.aborted = false
	w.abortWhy = 0
	if w.deadline > 0 {
		w.rootStart = time.Now()
	}
	if w.hooks != nil && w.hooks.onRootStart != nil {
		w.hooks.onRootStart(root)
	}

	// Install the root as subgraph position 0.
	slot := int32(w.g.Label(root))
	if w.opts.MaskRootLabel {
		slot = int32(w.k - 1)
	}
	w.nodePos[root] = 0
	w.nodes = append(w.nodes[:0], root)
	w.slabels = append(w.slabels[:0], slot)
	w.tv = append(w.tv[:0], w.zeroRow...)
	w.rv = append(w.rv[:0], 0)
	w.hash = w.pows.mix(0, slot)
	w.edges = 0

	// Initial candidates: all edges incident to the root. The maximum
	// degree heuristic never applies to the root itself (§4.3.5).
	w.ext = w.ext[:0]
	adj := w.g.Neighbors(root)
	eids := w.g.IncidentEdges(root)
	for i, to := range adj {
		w.edgeState[eids[i]] |= stateListed
		w.ext = append(w.ext, cand{from: root, to: to, id: eids[i]})
	}

	rootSegs := w.segArena[0][:0]
	if len(w.ext) > 0 {
		rootSegs = append(rootSegs, seg{0, len(w.ext)})
	}
	w.grow(rootSegs)

	if w.aborted {
		// The enumeration unwound without its usual bookkeeping; rebuild
		// the persistent state wholesale (O(V+E), once per truncated
		// root) so subsequent censuses start clean, and the pool keeps
		// the worker.
		for i := range w.edgeState {
			w.edgeState[i] = 0
		}
		for _, v := range w.nodes {
			w.nodePos[v] = -1
		}
		w.edges = 0
		w.nodes = w.nodes[:0]
		w.slabels = w.slabels[:0]
		w.tv = w.tv[:0]
		w.rv = w.rv[:0]
	} else {
		// Restore global state.
		for _, c := range w.ext {
			w.edgeState[c.id] &^= stateListed
		}
	}
	w.nodePos[root] = -1
	w.ext = w.ext[:0]

	// Materialise the census once, from the flat counter table. This is
	// the only per-root map work left: O(distinct keys), not O(emissions).
	counts := make(map[uint64]int64, w.tab.len())
	w.tab.forEach(func(k uint64, n int64) { counts[k] = n })
	return &Census{Root: root, Counts: counts, Subgraphs: w.emissions, Truncated: w.aborted, Flags: w.abortWhy}
}

// grow enumerates every connected subgraph extension reachable from the
// frame's candidate window, given as segments of the shared candidate
// stack (the unprocessed remainders of all ancestor windows plus this
// frame's fresh candidates). Each candidate is processed exactly once per
// branch context: it is added (counted, and recursed into if the edge
// budget allows), removed, and then banned so that later branches in this
// frame cannot regenerate subgraphs containing it — the exclusion
// discipline that makes the enumeration duplicate-free.
func (w *worker) grow(segs []seg) {
	for si := 0; si < len(segs); si++ {
		lo, hi := segs[si].lo, segs[si].hi
		for p := lo; p < hi; p++ {
			if w.shouldAbort() {
				return
			}
			c := w.ext[p]

			// Leaf batching (the paper's heterogeneous optimization
			// heuristic): when the next edge exhausts the budget, all
			// consecutive candidates that attach a fresh node of the same
			// label (and, when typed, incidence code) to the same
			// subgraph node produce identical encodings, so they are
			// counted in one step without materialising each subgraph.
			// The run's candidates are never recursed into, so their
			// ban/unban cycle is a no-op and can be skipped.
			if w.edges+1 == w.maxEdges && !w.opts.DisableLeafBatching {
				if j := w.leafRun(p, hi); j > p {
					if w.m > 1 {
						j = w.sameCodePrefix(p, j)
					}
					pa := w.nodePos[c.from]
					la, lb := w.slabels[pa], w.labelSlot(c.to)
					colA, colB := w.cols(c, la, lb)
					h := w.hash -
						w.pows.mix(w.rv[pa], la) +
						w.pows.mix(w.rv[pa]+w.pows.term(la, colA), la) +
						w.pows.mix(w.pows.term(lb, colB), lb)
					n := int64(j - p)
					if w.opts.KeyMode == CanonicalString {
						w.addEdge(c)
						w.count(n)
						w.removeEdge(c)
					} else {
						if w.tab.add(h, n) {
							w.learnLeaf(h, c)
						}
						w.emissions += n
					}
					p = j - 1
					continue
				}
			}

			newNode := w.nodePos[c.to] < 0
			w.addEdge(c)
			w.count(1)

			if w.edges < w.maxEdges {
				extraStart := len(w.ext)
				if newNode && int(w.g.Degree(c.to)) <= w.dmax {
					// List the new node's incident edges as fresh
					// candidates: discoveries of further nodes or cycle
					// closures, except edges already in the subgraph,
					// banned in this branch context, or already listed
					// elsewhere on this path. Hub nodes (degree > dmax)
					// join subgraphs but are never explored beyond
					// (topological optimization heuristic, §3.2).
					adj := w.g.Neighbors(c.to)
					eids := w.g.IncidentEdges(c.to)
					for ai, to2 := range adj {
						if w.edgeState[eids[ai]]&(stateInSubgraph|stateBanned|stateListed) != 0 {
							continue
						}
						w.edgeState[eids[ai]] |= stateListed
						w.ext = append(w.ext, cand{from: c.to, to: to2, id: eids[ai]})
					}
				}
				child := w.segArena[w.edges][:0]
				if p+1 < hi {
					child = append(child, seg{p + 1, hi})
				}
				child = append(child, segs[si+1:]...)
				if extraStart < len(w.ext) {
					child = append(child, seg{extraStart, len(w.ext)})
				}
				w.grow(child)
				if w.aborted {
					return
				}
				for _, x := range w.ext[extraStart:] {
					w.edgeState[x.id] &^= stateListed
				}
				w.ext = w.ext[:extraStart]
			}

			w.removeEdge(c)
			w.edgeState[c.id] |= stateBanned
		}
	}
	for _, s := range segs {
		for p := s.lo; p < s.hi; p++ {
			w.edgeState[w.ext[p].id] &^= stateBanned
		}
	}
}

// leafRun returns the exclusive end j of the maximal run ext[p:j) of
// candidates that share c.from, attach currently-absent nodes, and agree on
// the attached node's label slot. Runs of length 1 still profit from the
// batched counting path. On a typed graph grow trims the run further with
// sameCodePrefix.
func (w *worker) leafRun(p, hi int) int {
	c := w.ext[p]
	if w.nodePos[c.to] >= 0 {
		return p
	}
	slot := w.labelSlot(c.to)
	j := p + 1
	for j < hi {
		n := w.ext[j]
		if n.from != c.from || w.nodePos[n.to] >= 0 || w.labelSlot(n.to) != slot {
			break
		}
		j++
	}
	return j
}

// sameCodePrefix trims the leaf run ext[p:j) to its prefix whose edges
// share ext[p]'s incidence code at their common from node: only those
// attach leaves that encode identically. Candidates keep the typed
// adjacency order (label, code, id), so the prefix is the whole
// same-code group, and the next group starts a run of its own. Kept out
// of leafRun so the untyped scan stays exactly as tight as before.
func (w *worker) sameCodePrefix(p, j int) int {
	c := w.ext[p]
	code := w.g.IncidenceCode(c.id, c.from)
	for q := p + 1; q < j; q++ {
		if w.g.IncidenceCode(w.ext[q].id, c.from) != code {
			return q
		}
	}
	return j
}

// cols returns the typed-degree columns candidate c's edge occupies, given
// the label slots la of c.from and lb of c.to: at c.from the column of
// (lb, code seen from c.from), at c.to that of (la, code seen from c.to).
// Untyped graphs have the single code 0, so the columns are the slots
// themselves and the typed path is one predictable branch away.
func (w *worker) cols(c cand, la, lb int32) (colA, colB int32) {
	if w.m == 1 {
		return lb, la
	}
	return w.typedCols(c, la, lb)
}

func (w *worker) typedCols(c cand, la, lb int32) (colA, colB int32) {
	m := int32(w.m)
	return lb*m + w.g.IncidenceCode(c.id, c.from), la*m + w.g.IncidenceCode(c.id, c.to)
}

// labelSlot returns the encoding label slot of node v as a non-subgraph
// node (root masking never applies: the root is always in the subgraph).
func (w *worker) labelSlot(v graph.NodeID) int32 {
	return int32(w.g.Label(v))
}

// addEdge installs candidate c's edge into the subgraph, adding the far
// endpoint as a new node if necessary, and updates typed degrees and the
// rolling hash incrementally.
func (w *worker) addEdge(c cand) {
	pa := w.nodePos[c.from]
	pb := w.nodePos[c.to]
	fresh := pb < 0
	if fresh {
		pb = int32(len(w.nodes))
		w.nodePos[c.to] = pb
		w.nodes = append(w.nodes, c.to)
		w.slabels = append(w.slabels, w.labelSlot(c.to))
		w.tv = append(w.tv, w.zeroRow...)
		w.rv = append(w.rv, 0)
	}
	la, lb := w.slabels[pa], w.slabels[pb]
	colA, colB := w.cols(c, la, lb)
	w.tv[int(pa)*w.stride+int(colA)]++
	w.tv[int(pb)*w.stride+int(colB)]++

	w.hash -= w.pows.mix(w.rv[pa], la)
	w.rv[pa] += w.pows.term(la, colA)
	w.hash += w.pows.mix(w.rv[pa], la)

	if fresh {
		w.rv[pb] = w.pows.term(lb, colB)
		w.hash += w.pows.mix(w.rv[pb], lb)
	} else {
		w.hash -= w.pows.mix(w.rv[pb], lb)
		w.rv[pb] += w.pows.term(lb, colB)
		w.hash += w.pows.mix(w.rv[pb], lb)
	}

	w.edges++
	w.edgeState[c.id] |= stateInSubgraph
}

// removeEdge undoes addEdge. The far endpoint is dropped if this edge was
// its only connection — which is always the case for the endpoint that
// addEdge created, because enumeration removes edges in LIFO order.
func (w *worker) removeEdge(c cand) {
	pa := w.nodePos[c.from]
	pb := w.nodePos[c.to]
	la, lb := w.slabels[pa], w.slabels[pb]
	colA, colB := w.cols(c, la, lb)
	w.tv[int(pa)*w.stride+int(colA)]--
	w.tv[int(pb)*w.stride+int(colB)]--

	w.hash -= w.pows.mix(w.rv[pa], la)
	w.rv[pa] -= w.pows.term(la, colA)
	w.hash += w.pows.mix(w.rv[pa], la)

	w.edges--
	w.edgeState[c.id] &^= stateInSubgraph

	// Drop the far node if it just became isolated and is the most
	// recently added node (LIFO discipline guarantees this for nodes the
	// matching addEdge created).
	dropped := false
	if int(pb) == len(w.nodes)-1 {
		row := w.tv[int(pb)*w.stride : (int(pb)+1)*w.stride]
		isolated := true
		for _, t := range row {
			if t != 0 {
				isolated = false
				break
			}
		}
		if isolated {
			w.hash -= w.pows.mix(w.rv[pb], lb)
			w.nodePos[c.to] = -1
			w.nodes = w.nodes[:pb]
			w.slabels = w.slabels[:pb]
			w.tv = w.tv[:int(pb)*w.stride]
			w.rv = w.rv[:pb]
			dropped = true
		}
	}
	if !dropped {
		w.hash -= w.pows.mix(w.rv[pb], lb)
		w.rv[pb] -= w.pows.term(lb, colB)
		w.hash += w.pows.mix(w.rv[pb], lb)
	}
}

// count registers n occurrences of the current subgraph in the census:
// one counter-table probe, with the canonical sequence materialised only
// the first time this root (and this worker's lifetime) sees the key. In
// rolling-hash mode the steady state — warm table, known vocabulary —
// performs no allocation and no map operation at all.
func (w *worker) count(n int64) {
	if w.opts.KeyMode == CanonicalString {
		s := w.sequence()
		key := fnvSequence(s)
		if w.tab.add(key, n) {
			if _, ok := w.repr[key]; !ok {
				w.repr[key] = s
			}
		}
	} else if w.tab.add(w.hash, n) {
		if _, ok := w.repr[w.hash]; !ok {
			w.repr[w.hash] = w.sequence()
		}
	}
	w.emissions += n
}

// learnLeaf materialises the representative of a batched leaf run's key
// h the first time the worker meets it (first sight this root already
// passed the counter table), by briefly adding one of the run's edges.
func (w *worker) learnLeaf(h uint64, c cand) {
	if _, ok := w.repr[h]; !ok {
		w.addEdge(c)
		w.repr[h] = w.sequence()
		w.removeEdge(c)
	}
}

// sequence materialises the canonical characteristic sequence of the
// current subgraph.
func (w *worker) sequence() Sequence {
	n := len(w.nodes)
	vals := make([]int32, 0, n*(w.stride+1))
	for i := 0; i < n; i++ {
		vals = append(vals, w.slabels[i])
		vals = append(vals, w.tv[i*w.stride:(i+1)*w.stride]...)
	}
	s := Sequence{K: w.k, M: w.m, Values: vals}
	s.normalize()
	return s
}
