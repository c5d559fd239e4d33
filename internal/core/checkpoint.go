package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// checkpointVersion guards the snapshot schema; a reader that meets a
// different version refuses the file instead of misinterpreting it.
const checkpointVersion = 1

// DefaultCheckpointInterval is the number of completed roots between
// snapshots when CheckpointConfig.Interval is zero.
const DefaultCheckpointInterval = 64

// CheckpointConfig drives CensusAllCheckpoint: where the snapshot lives,
// how often it is refreshed, and whether an existing snapshot should
// seed the run.
type CheckpointConfig struct {
	// Path is the snapshot file, written as a checksummed store envelope
	// via temp file + fsync + rename + parent-directory fsync, so a
	// crash mid-snapshot never corrupts (or un-persists) the previous
	// snapshot.
	Path string
	// Interval is the number of completed roots between snapshots;
	// <= 0 selects DefaultCheckpointInterval.
	Interval int
	// Resume loads the snapshot at Path (when present) and skips every
	// root it already covers. A snapshot extracted under different
	// options, over a different graph, or for a different root list is
	// rejected with a descriptive error rather than silently mixed in.
	Resume bool
}

// censusSnapshot is the on-disk form of a partially completed CensusAll
// run: the extraction fingerprint, the completed rows, and the canonical
// sequences behind every key they reference (so a resumed extractor can
// still decode its whole vocabulary).
type censusSnapshot struct {
	Version       int     `json:"version"`
	MaxEdges      int     `json:"max_edges"`
	MaxDegree     int     `json:"max_degree,omitempty"`
	MaskRootLabel bool    `json:"mask_root_label,omitempty"`
	KeyMode       int     `json:"key_mode,omitempty"`
	GraphNodes    int     `json:"graph_nodes"`
	GraphEdges    int     `json:"graph_edges"`
	Roots         []int64 `json:"roots"`

	Rows []snapshotRow  `json:"rows"`
	Repr []snapshotRepr `json:"repr"`
}

// snapshotRow is one completed census: its position in the run's root
// list and its counts as parallel key/count slices in ascending key
// order (deterministic output for byte-identical re-snapshots).
type snapshotRow struct {
	Index     int      `json:"index"`
	Root      int64    `json:"root"`
	Keys      []uint64 `json:"keys"`
	Counts    []int64  `json:"counts"`
	Subgraphs int64    `json:"subgraphs"`
	Flags     uint8    `json:"flags,omitempty"`
}

// snapshotRepr is one decoded vocabulary entry.
type snapshotRepr struct {
	Key    uint64  `json:"key"`
	K      int     `json:"k"`
	Values []int32 `json:"values"`
}

// CensusAllCheckpoint is CensusAllContext with crash resilience: every
// cfg.Interval completed roots (and once more when the run ends, whether
// it finished or was cancelled) the completed rows are snapshotted to
// cfg.Path, and a run started with cfg.Resume skips roots the snapshot
// already covers. Returns the full census slice aligned with roots;
// pending roots are nil when the context was cancelled, and the error is
// ctx.Err() or the first snapshot I/O failure. Typed extractors are
// refused (graph.ErrEdgeTyped): the checkpoint format records no
// incidence count.
func (e *Extractor) CensusAllCheckpoint(ctx context.Context, roots []graph.NodeID, workers int, cfg CheckpointConfig) ([]*Census, error) {
	if err := e.g.RequireUntyped("core: checkpoint"); err != nil {
		return nil, err
	}
	if cfg.Path == "" {
		return nil, fmt.Errorf("core: checkpoint path must not be empty")
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}

	col := &checkpointCollector{
		e:        e,
		path:     cfg.Path,
		interval: interval,
		roots:    roots,
		done:     make(map[int]*Census),
	}
	if cfg.Resume {
		if err := col.load(); err != nil {
			return nil, err
		}
	}

	// Split off the roots the snapshot already covers.
	pending := make([]int, 0, len(roots))
	for i := range roots {
		if _, ok := col.done[i]; !ok {
			pending = append(pending, i)
		}
	}
	out := make([]*Census, len(roots))
	for i, c := range col.done {
		out[i] = c
	}
	if len(pending) == 0 {
		return out, ctx.Err()
	}

	pendingRoots := make([]graph.NodeID, len(pending))
	for j, i := range pending {
		pendingRoots[j] = roots[i]
	}

	stop, release := stopOnCancel(ctx)
	defer release()
	sub, _ := e.censusAll(pendingRoots, workers, censusRun{
		stop: stop,
		done: func(j int, c *Census) { col.add(pending[j], c) },
	})
	for j, i := range pending {
		out[i] = sub[j]
	}
	// Final snapshot: a finished run leaves a complete checkpoint, a
	// cancelled one keeps everything completed so far.
	if err := col.snapshot(); err != nil {
		return out, err
	}
	if err := col.err(); err != nil {
		return out, err
	}
	return out, ctx.Err()
}

// checkpointCollector owns the completed-row map and the snapshot file.
// Workers deliver rows through add; snapshots are taken synchronously
// under the collector lock so a row is never half-recorded.
type checkpointCollector struct {
	e        *Extractor
	path     string
	interval int
	roots    []graph.NodeID

	mu        sync.Mutex
	done      map[int]*Census
	sinceSnap int
	ioErr     error // first snapshot failure; sticky
}

func (c *checkpointCollector) add(i int, cen *Census) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[i] = cen
	c.sinceSnap++
	if c.sinceSnap >= c.interval && c.ioErr == nil {
		c.ioErr = c.writeLocked()
		c.sinceSnap = 0
	}
}

func (c *checkpointCollector) snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ioErr != nil {
		return c.ioErr
	}
	c.ioErr = c.writeLocked()
	return c.ioErr
}

func (c *checkpointCollector) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ioErr
}

// writeLocked assembles and atomically replaces the snapshot file.
func (c *checkpointCollector) writeLocked() error {
	opts := c.e.Options()
	snap := censusSnapshot{
		Version:       checkpointVersion,
		MaxEdges:      opts.MaxEdges,
		MaxDegree:     opts.MaxDegree,
		MaskRootLabel: opts.MaskRootLabel,
		KeyMode:       int(opts.KeyMode),
		GraphNodes:    c.e.g.NumNodes(),
		GraphEdges:    c.e.g.NumEdges(),
	}
	snap.Roots = make([]int64, len(c.roots))
	for i, r := range c.roots {
		snap.Roots[i] = int64(r)
	}

	indices := make([]int, 0, len(c.done))
	for i := range c.done {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	need := make(map[uint64]bool)
	for _, i := range indices {
		cen := c.done[i]
		row := snapshotRow{
			Index:     i,
			Root:      int64(cen.Root),
			Subgraphs: cen.Subgraphs,
			Flags:     uint8(cen.Flags),
		}
		row.Keys = make([]uint64, 0, len(cen.Counts))
		for k := range cen.Counts {
			row.Keys = append(row.Keys, k)
			need[k] = true
		}
		sort.Slice(row.Keys, func(a, b int) bool { return row.Keys[a] < row.Keys[b] })
		row.Counts = make([]int64, len(row.Keys))
		for j, k := range row.Keys {
			row.Counts[j] = cen.Counts[k]
		}
		snap.Rows = append(snap.Rows, row)
	}

	// Snapshot only the vocabulary the completed rows reference; workers
	// merge their repr before delivering a row, so every key resolves.
	keys := make([]uint64, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		seq, ok := c.e.Decode(k)
		if !ok {
			return fmt.Errorf("core: checkpoint key %x has no representative", k)
		}
		snap.Repr = append(snap.Repr, snapshotRepr{Key: k, K: seq.K, Values: seq.Values})
	}

	return writeCheckpointFile(c.path, &snap)
}

// writeCheckpointFile persists one checkpoint as a checksummed envelope
// through the store's crash-safe write path.
func writeCheckpointFile(path string, snap *censusSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	sections, err := artifactSections(ArtifactCheckpoint, payload)
	if err != nil {
		return err
	}
	return store.WriteFile(path, sections)
}

// readCheckpointFile reads a checkpoint written by writeCheckpointFile.
// Anything but an intact checkpoint envelope — damage, a bare-JSON
// file, another artifact — surfaces as a typed store error.
func readCheckpointFile(path string) (*censusSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	env, err := store.ParseEnvelope(data)
	if err != nil {
		return nil, err
	}
	payload, err := artifactPayload(env, ArtifactCheckpoint)
	if err != nil {
		return nil, err
	}
	var snap censusSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	return &snap, nil
}

// load reads the snapshot at c.path, validates it against this run, and
// fills c.done. A missing file is not an error: the run starts fresh.
func (c *checkpointCollector) load() error {
	snap, err := readCheckpointFile(c.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", c.path, err)
	}
	if err := c.validate(snap); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", c.path, err)
	}

	seqs := make(map[uint64]Sequence, len(snap.Repr))
	for _, r := range snap.Repr {
		seqs[r.Key] = Sequence{K: r.K, Values: r.Values}
	}
	c.e.mergeRepr(seqs)

	for _, row := range snap.Rows {
		// Transiently incomplete rows — cut short by the cancellation
		// that ended the previous run, or by a worker panic — are
		// re-extracted on resume. Deterministically degraded rows
		// (budget, deadline) are kept: re-running them would only spend
		// the same budget again.
		if CensusFlag(row.Flags)&(FlagCancelled|FlagPanicked) != 0 {
			continue
		}
		cen := &Census{
			Root:      graph.NodeID(row.Root),
			Counts:    make(map[uint64]int64, len(row.Keys)),
			Subgraphs: row.Subgraphs,
			Flags:     CensusFlag(row.Flags),
			Truncated: CensusFlag(row.Flags) != 0,
		}
		for j, k := range row.Keys {
			cen.Counts[k] = row.Counts[j]
		}
		c.done[row.Index] = cen
	}
	return nil
}

func (c *checkpointCollector) validate(snap *censusSnapshot) error {
	if snap.Version != checkpointVersion {
		return fmt.Errorf("%w: snapshot version %d, want %d", store.ErrUnsupportedVersion, snap.Version, checkpointVersion)
	}
	opts := c.e.Options()
	switch {
	case snap.MaxEdges != opts.MaxEdges:
		return fmt.Errorf("snapshot extracted with emax=%d, run uses %d", snap.MaxEdges, opts.MaxEdges)
	case snap.MaxDegree != opts.MaxDegree:
		return fmt.Errorf("snapshot extracted with dmax=%d, run uses %d", snap.MaxDegree, opts.MaxDegree)
	case snap.MaskRootLabel != opts.MaskRootLabel:
		return fmt.Errorf("snapshot mask_root_label=%v, run uses %v", snap.MaskRootLabel, opts.MaskRootLabel)
	case snap.KeyMode != int(opts.KeyMode):
		return fmt.Errorf("snapshot key mode %v, run uses %v", KeyMode(snap.KeyMode), opts.KeyMode)
	case snap.GraphNodes != c.e.g.NumNodes() || snap.GraphEdges != c.e.g.NumEdges():
		return fmt.Errorf("snapshot graph has %d nodes / %d edges, run's graph has %d / %d",
			snap.GraphNodes, snap.GraphEdges, c.e.g.NumNodes(), c.e.g.NumEdges())
	case len(snap.Roots) != len(c.roots):
		return fmt.Errorf("snapshot covers %d roots, run has %d", len(snap.Roots), len(c.roots))
	}
	for i, r := range snap.Roots {
		if r != int64(c.roots[i]) {
			return fmt.Errorf("snapshot root list diverges at index %d: %d vs %d", i, r, c.roots[i])
		}
	}
	for _, row := range snap.Rows {
		if row.Index < 0 || row.Index >= len(c.roots) {
			return fmt.Errorf("snapshot row index %d outside %d roots", row.Index, len(c.roots))
		}
		if row.Root != int64(c.roots[row.Index]) {
			return fmt.Errorf("snapshot row %d is for root %d, run expects %d", row.Index, row.Root, c.roots[row.Index])
		}
		if len(row.Keys) != len(row.Counts) {
			return fmt.Errorf("snapshot row %d has %d keys but %d counts", row.Index, len(row.Keys), len(row.Counts))
		}
	}
	return nil
}

// ReadCensusCheckpointInfo summarises a checkpoint file without needing
// the extractor it belongs to: total roots, completed rows, and how many
// of those are degraded (non-zero flags). Intended for tooling and
// progress reporting.
func ReadCensusCheckpointInfo(path string) (total, done, degraded int, err error) {
	snap, err := readCheckpointFile(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if snap.Version != checkpointVersion {
		return 0, 0, 0, fmt.Errorf("core: checkpoint %s: %w: version %d, want %d",
			path, store.ErrUnsupportedVersion, snap.Version, checkpointVersion)
	}
	for _, row := range snap.Rows {
		if row.Flags != 0 {
			degraded++
		}
	}
	return len(snap.Roots), len(snap.Rows), degraded, nil
}
