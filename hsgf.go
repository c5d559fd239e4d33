// Package hsgf is the public API of the heterogeneous subgraph features
// library, a from-scratch Go reproduction of Spitz et al., "Heterogeneous
// Subgraph Features for Information Networks" (GRADES-NDA'18).
//
// The library extracts node features from heterogeneous (node-labelled)
// networks by enumerating every connected subgraph with at most emax
// edges around a node and counting subgraph types, identified by the
// characteristic-sequence encoding of §3 of the paper. The resulting
// count vectors are powerful, interpretable node representations for
// ranking and classification tasks.
//
// Quick start:
//
//	b := hsgf.NewBuilder()
//	alice, _ := b.AddNode("author")
//	paper, _ := b.AddNode("paper")
//	b.AddEdge(alice, paper)
//	g, _ := b.Build()
//
//	ex, _ := hsgf.NewExtractor(g, hsgf.Options{MaxEdges: 4})
//	census := ex.Census(alice)
//	for key, count := range census.Counts {
//	    fmt.Println(ex.EncodingString(key), count)
//	}
//
// Feature matrices over many nodes:
//
//	censuses := ex.CensusAll(nodes, 0)
//	vocab := hsgf.VocabularyOf(censuses)
//	X := hsgf.Matrix(censuses, vocab)
//
// The subpackages under internal/ additionally provide the evaluation
// substrate of the paper: the ML stack (internal/ml), the embedding
// baselines (internal/embed), the synthetic evaluation networks
// (internal/datagen), the exact-isomorphism audit (internal/iso) and the
// experiment pipelines (internal/experiments), all driven by the cmd/
// tools.
package hsgf

import (
	"io"
	"math/rand"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/store"
)

// Re-exported graph types. See package hsgf/internal/graph for details.
type (
	// Graph is an immutable heterogeneous network.
	Graph = graph.Graph
	// NodeID identifies a node within one Graph.
	NodeID = graph.NodeID
	// Label identifies a node type within one Graph's alphabet.
	Label = graph.Label
	// EdgeID identifies an edge within one Graph.
	EdgeID = graph.EdgeID
	// Builder accumulates nodes and edges and freezes them into a Graph.
	Builder = graph.Builder
	// Alphabet maps between Label values and their names.
	Alphabet = graph.Alphabet
	// LabelConnectivity is the label connectivity graph of a network.
	LabelConnectivity = graph.LabelConnectivity
)

// Re-exported feature-extraction types. See hsgf/internal/core.
type (
	// Extractor computes heterogeneous subgraph features over one graph.
	Extractor = core.Extractor
	// Options configures subgraph feature extraction (emax, dmax,
	// root-label masking, key mode).
	Options = core.Options
	// Census is the per-root subgraph type count table.
	Census = core.Census
	// Sequence is the canonical characteristic sequence of a subgraph.
	Sequence = core.Sequence
	// Vocabulary assigns dense columns to encoding keys.
	Vocabulary = core.Vocabulary
	// KeyMode selects rolling-hash or canonical-string census keys.
	KeyMode = core.KeyMode
	// CensusFlag records why a census is incomplete (budget, deadline,
	// cancellation, worker panic).
	CensusFlag = core.CensusFlag
	// PanicRecord describes a panic recovered inside a census worker.
	PanicRecord = core.PanicRecord
	// CheckpointConfig configures checkpointed extraction
	// (Extractor.CensusAllCheckpoint).
	CheckpointConfig = core.CheckpointConfig
	// RootLimits is a per-call override of the per-root enumeration
	// bounds (Extractor.CensusAllWithLimits).
	RootLimits = core.RootLimits
)

// Census degradation flags (Census.Flags / FeatureSet.RowFlags).
const (
	// FlagBudgetExceeded marks a census truncated by MaxSubgraphsPerRoot.
	FlagBudgetExceeded = core.FlagBudgetExceeded
	// FlagDeadlineExceeded marks a census truncated by RootDeadline.
	FlagDeadlineExceeded = core.FlagDeadlineExceeded
	// FlagCancelled marks a census interrupted by context cancellation.
	FlagCancelled = core.FlagCancelled
	// FlagPanicked marks a census abandoned after a recovered worker panic.
	FlagPanicked = core.FlagPanicked
	// FlagShardUnavailable marks a row whose owning shard was unreachable
	// in the sharded serving tier (hsgf-router partial-result degradation).
	FlagShardUnavailable = core.FlagShardUnavailable
)

// Census key modes.
const (
	// RollingHash keys censuses by the incremental rolling hash
	// (default, fast).
	RollingHash = core.RollingHash
	// CanonicalString keys censuses by a digest of the materialised
	// canonical sequence (ablation comparator).
	CanonicalString = core.CanonicalString
)

// NewBuilder returns a graph builder that discovers its label alphabet
// from the label names passed to AddNode.
func NewBuilder() *Builder { return graph.NewBuilder() }

// NewBuilderWithAlphabet returns a graph builder over a fixed alphabet.
func NewBuilderWithAlphabet(a *Alphabet) *Builder { return graph.NewBuilderWithAlphabet(a) }

// NewAlphabet returns an alphabet over the given label names.
func NewAlphabet(names ...string) (*Alphabet, error) { return graph.NewAlphabet(names...) }

// ReadTSV parses a graph in the TSV exchange format (see WriteTSV), or
// an edge-typed graph when the first record is "t directed|undirected"
// and every edge line carries an edge label; extractors over typed
// graphs produce direction- and edge-label-aware features.
func ReadTSV(r io.Reader) (*Graph, error) { return graph.ReadTSV(r) }

// WriteTSV serializes a graph in the line-oriented TSV exchange format:
// "n<TAB>label[<TAB>name]" node lines followed by "e<TAB>u<TAB>v" edge
// lines — in the typed format for edge-typed graphs.
func WriteTSV(w io.Writer, g *Graph) error { return graph.WriteTSV(w, g) }

// LabelConnectivityOf computes the label connectivity graph of g.
func LabelConnectivityOf(g *Graph) *LabelConnectivity { return graph.LabelConnectivityOf(g) }

// DegreePercentile returns the degree at fraction p of g's degree
// distribution; use it to translate the paper's percentile dmax levels
// into Options.MaxDegree values.
func DegreePercentile(g *Graph, p float64) int { return graph.DegreePercentile(g, p) }

// NewExtractor validates opts and returns a feature extractor for g.
func NewExtractor(g *Graph, opts Options) (*Extractor, error) { return core.NewExtractor(g, opts) }

// DefaultOptions returns the paper's label-prediction configuration:
// emax = 5, no hub cutoff, root label masked.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewVocabulary returns an empty feature vocabulary.
func NewVocabulary() *Vocabulary { return core.NewVocabulary() }

// VocabularyOf builds a vocabulary covering all keys in the censuses.
func VocabularyOf(censuses []*Census) *Vocabulary { return core.VocabularyOf(censuses) }

// Matrix assembles censuses into a dense feature matrix over vocab;
// unseen keys are dropped (projecting test features onto a train
// vocabulary).
func Matrix(censuses []*Census, vocab *Vocabulary) [][]float64 { return core.Matrix(censuses, vocab) }

// FeatureSet is the portable JSON form of extracted features: decoded
// vocabulary plus sparse per-root count rows.
type FeatureSet = core.FeatureSet

// NewFeatureSet packages censuses and a vocabulary for serialisation.
func NewFeatureSet(ex *Extractor, censuses []*Census, vocab *Vocabulary) (*FeatureSet, error) {
	return core.NewFeatureSet(ex, censuses, vocab)
}

// ReadFeatureSet parses a feature set written by FeatureSet.Write.
func ReadFeatureSet(r io.Reader) (*FeatureSet, error) { return core.ReadFeatureSet(r) }

// ReadCensusCheckpointInfo inspects a census checkpoint file and reports
// how many roots it covers (total), how many are complete (done) and how
// many completed in degraded form (truncated by budget or deadline).
func ReadCensusCheckpointInfo(path string) (total, done, degraded int, err error) {
	return core.ReadCensusCheckpointInfo(path)
}

// FilterRootsByDegree drops roots above a degree percentile — the
// paper's policy of skipping the top-degree 5% of starting nodes
// (§4.3.5) corresponds to percentile 0.95.
func FilterRootsByDegree(g *Graph, roots []NodeID, percentile float64) []NodeID {
	return core.FilterRootsByDegree(g, roots, percentile)
}

// SampleRoots draws up to perLabel roots of every label uniformly, the
// paper's evaluation sampling protocol (§4.3.2).
func SampleRoots(g *Graph, perLabel int, rng *rand.Rand) []NodeID {
	return core.SampleRoots(g, perLabel, rng)
}

// ExtractFeatures is the one-call convenience path: it extracts censuses
// for all roots in parallel, builds a vocabulary over them and returns
// the dense feature matrix, the vocabulary, and the extractor (whose
// EncodingString decodes vocabulary keys for interpretation).
func ExtractFeatures(g *Graph, roots []NodeID, opts Options, workers int) ([][]float64, *Vocabulary, *Extractor, error) {
	ex, err := core.NewExtractor(g, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	censuses := ex.CensusAll(roots, workers)
	vocab := core.VocabularyOf(censuses)
	return core.Matrix(censuses, vocab), vocab, ex, nil
}

// Artifact store: crash-safe, checksummed, generation-numbered snapshots
// of graphs. See hsgf/internal/store for the envelope
// format and durability contract.
type (
	// Store is a directory of generation-numbered snapshot artifacts
	// with atomic writes, verification on read, corruption quarantine
	// and bounded retention.
	Store = store.Store
	// StoreOptions tunes a Store (retention depth, logging).
	StoreOptions = store.Options
)

// Artifact-store error taxonomy, checked with errors.Is.
var (
	// ErrStoreCorrupt marks an artifact that failed checksum or framing
	// verification; the store quarantines it and falls back.
	ErrStoreCorrupt = store.ErrCorrupt
	// ErrStoreUnsupportedVersion marks an artifact written by a newer
	// format revision than this binary understands.
	ErrStoreUnsupportedVersion = store.ErrUnsupportedVersion
	// ErrStoreNotFound marks a store with no intact generation of the
	// requested artifact kind.
	ErrStoreNotFound = store.ErrNotFound
)

// OpenStore opens (creating if necessary) an artifact store rooted at
// dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) { return store.Open(dir, opts) }

// SaveGraphSnapshot writes g into st as the next graph generation, in
// the binary encoding the loader memory-maps.
func SaveGraphSnapshot(st *Store, g *Graph) (uint64, error) { return core.SaveGraphSnapshots(st, g) }

// LoadGraphSnapshot loads the newest graph generation that passes
// verification, quarantining corrupt generations along the way. The
// graph's arrays alias a read-only memory mapping where the platform
// allows.
func LoadGraphSnapshot(st *Store) (*Graph, uint64, error) { return core.LoadGraphSnapshotAuto(st) }

// ReadGraphFile reads a graph from a file in whichever format its bytes
// declare: a store graph snapshot or a TSV exchange file.
func ReadGraphFile(path string) (*Graph, error) { return core.ReadGraphFile(path) }
