package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// FeatureSet is the portable form of extracted features: the vocabulary
// of encodings (decoded to canonical sequences so they stay interpretable
// without the extractor) and one sparse count row per root. It
// serialises to a stable JSON document, so features can be computed once
// and consumed by external tooling.
type FeatureSet struct {
	// MaxEdges, MaskRootLabel, MaxDegree document the extraction.
	MaxEdges      int  `json:"max_edges"`
	MaxDegree     int  `json:"max_degree,omitempty"`
	MaskRootLabel bool `json:"mask_root_label,omitempty"`

	// LabelSlots is the encoding's label-slot count; SlotNames its
	// display names (last one "*" when the root is masked).
	LabelSlots int      `json:"label_slots"`
	SlotNames  []string `json:"slot_names"`

	// Features holds one entry per vocabulary column.
	Features []FeatureDef `json:"features"`
	// Rows holds one sparse row per root, aligned with Roots.
	Roots []int64      `json:"roots"`
	Rows  []FeatureRow `json:"rows"`
	// RowFlags, when present, is aligned with Rows and carries each
	// row's CensusFlag taxonomy (truncation, deadline, cancellation,
	// panic), so degraded rows stay identifiable after persistence.
	// Empty means every row is complete.
	RowFlags []uint8 `json:"row_flags,omitempty"`
}

// Degraded reports whether row i was extracted incompletely (its census
// carried a non-zero flag set).
func (fs *FeatureSet) Degraded(i int) bool {
	return i < len(fs.RowFlags) && fs.RowFlags[i] != 0
}

// FeatureDef is one subgraph feature: its key, its canonical sequence
// values and a rendered form.
type FeatureDef struct {
	Key      uint64  `json:"key"`
	Sequence []int32 `json:"sequence"`
	Encoding string  `json:"encoding"`
}

// FeatureRow is a sparse count vector: parallel column/count slices.
type FeatureRow struct {
	Columns []int   `json:"columns"`
	Counts  []int64 `json:"counts"`
}

// NewFeatureSet packages censuses and their vocabulary for
// serialisation, decoding every vocabulary key through the extractor.
// Typed extractors are refused (graph.ErrEdgeTyped): the format records
// no incidence count, so typed sequences would be misread.
func NewFeatureSet(ex *Extractor, censuses []*Census, vocab *Vocabulary) (*FeatureSet, error) {
	if err := ex.Graph().RequireUntyped("core: feature set"); err != nil {
		return nil, err
	}
	opts := ex.Options()
	fs := &FeatureSet{
		MaxEdges:      opts.MaxEdges,
		MaxDegree:     opts.MaxDegree,
		MaskRootLabel: opts.MaskRootLabel,
		LabelSlots:    ex.LabelSlots(),
	}
	for l := 0; l < ex.LabelSlots(); l++ {
		fs.SlotNames = append(fs.SlotNames, ex.SlotName(l))
	}
	for c := 0; c < vocab.Len(); c++ {
		key := vocab.Key(c)
		seq, ok := ex.Decode(key)
		if !ok {
			return nil, fmt.Errorf("core: vocabulary key %x has no representative", key)
		}
		fs.Features = append(fs.Features, FeatureDef{
			Key:      key,
			Sequence: seq.Values,
			Encoding: seq.String(ex.SlotName),
		})
	}
	flags := make([]uint8, 0, len(censuses))
	anyFlag := false
	for _, cen := range censuses {
		var row FeatureRow
		var flag uint8
		if cen != nil {
			fs.Roots = append(fs.Roots, int64(cen.Root))
			for key, n := range cen.Counts {
				if col, ok := vocab.Index(key); ok {
					row.Columns = append(row.Columns, col)
					row.Counts = append(row.Counts, n)
				}
			}
			sortRow(&row)
			flag = uint8(cen.Flags)
		} else {
			// A nil census is a root the run never reached (cancelled
			// before assignment); mark it so consumers can tell it from
			// a genuinely empty census.
			fs.Roots = append(fs.Roots, -1)
			flag = uint8(FlagCancelled)
		}
		fs.Rows = append(fs.Rows, row)
		flags = append(flags, flag)
		anyFlag = anyFlag || flag != 0
	}
	if anyFlag {
		fs.RowFlags = flags
	}
	return fs, nil
}

func sortRow(r *FeatureRow) {
	// Insertion sort by column; rows are short relative to sort.Sort
	// overhead and this keeps the function allocation free.
	for i := 1; i < len(r.Columns); i++ {
		for j := i; j > 0 && r.Columns[j] < r.Columns[j-1]; j-- {
			r.Columns[j], r.Columns[j-1] = r.Columns[j-1], r.Columns[j]
			r.Counts[j], r.Counts[j-1] = r.Counts[j-1], r.Counts[j]
		}
	}
}

// Write serialises the feature set as JSON.
func (fs *FeatureSet) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fs); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadFeatureSet parses a feature set written by Write.
func ReadFeatureSet(r io.Reader) (*FeatureSet, error) {
	var fs FeatureSet
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&fs); err != nil {
		return nil, err
	}
	if err := fs.validate(); err != nil {
		return nil, err
	}
	return &fs, nil
}

// validate checks the structural invariants of a deserialised feature
// set before any consumer indexes into it: row/root alignment, parallel
// column/count slices, in-range sorted unique columns, non-negative
// counts, consistent slot metadata, and unique feature keys. Hand-edited
// or truncated files fail here with a descriptive error instead of an
// index panic downstream.
func (fs *FeatureSet) validate() error {
	if fs.MaxEdges < 1 {
		return fmt.Errorf("core: feature set has max_edges %d, want >= 1", fs.MaxEdges)
	}
	if fs.LabelSlots < 0 {
		return fmt.Errorf("core: negative label_slots %d", fs.LabelSlots)
	}
	if len(fs.SlotNames) != 0 && len(fs.SlotNames) != fs.LabelSlots {
		return fmt.Errorf("core: %d slot names for %d label slots", len(fs.SlotNames), fs.LabelSlots)
	}
	if len(fs.Roots) != len(fs.Rows) {
		return fmt.Errorf("core: %d roots but %d rows", len(fs.Roots), len(fs.Rows))
	}
	if len(fs.RowFlags) != 0 && len(fs.RowFlags) != len(fs.Rows) {
		return fmt.Errorf("core: %d row flags for %d rows", len(fs.RowFlags), len(fs.Rows))
	}
	for i, r := range fs.Roots {
		if r < -1 {
			return fmt.Errorf("core: root %d has invalid node id %d", i, r)
		}
	}
	for i, row := range fs.Rows {
		if len(row.Columns) != len(row.Counts) {
			return fmt.Errorf("core: row %d has %d columns but %d counts", i, len(row.Columns), len(row.Counts))
		}
		for j, c := range row.Columns {
			if c < 0 || c >= len(fs.Features) {
				return fmt.Errorf("core: row %d references column %d outside %d features", i, c, len(fs.Features))
			}
			if j > 0 && c <= row.Columns[j-1] {
				return fmt.Errorf("core: row %d columns not strictly ascending at position %d (%d after %d)",
					i, j, c, row.Columns[j-1])
			}
		}
		for j, n := range row.Counts {
			if n < 0 {
				return fmt.Errorf("core: row %d has negative count %d in column %d", i, n, row.Columns[j])
			}
		}
	}
	seen := make(map[uint64]int, len(fs.Features))
	for i, f := range fs.Features {
		if fs.LabelSlots > 0 && len(f.Sequence)%(fs.LabelSlots+1) != 0 {
			return fmt.Errorf("core: feature %d sequence length %d not divisible by stride %d",
				i, len(f.Sequence), fs.LabelSlots+1)
		}
		if prev, dup := seen[f.Key]; dup {
			return fmt.Errorf("core: features %d and %d share key %x", prev, i, f.Key)
		}
		seen[f.Key] = i
	}
	return nil
}

// Dense expands the sparse rows into a dense row-major matrix aligned
// with Roots.
func (fs *FeatureSet) Dense() [][]float64 {
	out := make([][]float64, len(fs.Rows))
	for i, row := range fs.Rows {
		r := make([]float64, len(fs.Features))
		for j, col := range row.Columns {
			r[col] = float64(row.Counts[j])
		}
		out[i] = r
	}
	return out
}
