package serve

import (
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// vocab interns one serving snapshot's encoding keys — the shared
// vocabulary the paper's sparse feature vectors are indexed by — so a
// row stores small ids instead of repeating every encoding string. It
// is append-only: an id names the same key for the snapshot's lifetime,
// and the key set is bounded by the extractor's own decoded vocabulary.
// Interning runs on the miss path under mu; readers load table without
// a lock.
type vocab struct {
	mu    sync.Mutex
	ids   map[uint64]uint32 // census key -> id
	table atomic.Pointer[vocabTable]
}

// vocabTable is an immutable view of ids [0, len(keys)). Interning
// publishes a longer table that may share these backing arrays, but
// only ever writes past their lengths, so the elements a reader of this
// view can index never change.
type vocabTable struct {
	keys []string // decoded encoding strings, the order encoding/json sorts map keys by
	wire [][]byte // json.Marshal(key) + ':', each key exactly as encoding/json writes it
}

func newVocab() *vocab {
	v := &vocab{ids: make(map[uint64]uint32)}
	v.table.Store(&vocabTable{})
	return v
}

// size is the number of interned keys.
func (v *vocab) size() int { return len(v.table.Load().keys) }

// idCount is one count of a row, its key replaced by its vocabulary id.
type idCount struct {
	id uint32
	n  int64
}

// intern resolves every key of counts to its id, interning new keys
// under name (the extractor's EncodingString), and returns the pairs in
// the order encoding/json writes map keys — ascending by decoded key
// string — together with a table covering them. Label names containing
// the delimited notation's separators can render two census keys as one
// string; their counts are summed, so a row never repeats a JSON key.
func (v *vocab) intern(counts map[uint64]int64, name func(uint64) string) ([]idCount, *vocabTable) {
	pairs := make([]idCount, 0, len(counts))
	v.mu.Lock()
	t := v.table.Load()
	grown := *t
	for key, n := range counts {
		id, ok := v.ids[key]
		if !ok {
			s := name(key)
			w, _ := json.Marshal(s) // a string always marshals
			id = uint32(len(grown.keys))
			grown.keys = append(grown.keys, s)
			grown.wire = append(grown.wire, append(w, ':'))
			v.ids[key] = id
		}
		pairs = append(pairs, idCount{id, n})
	}
	if len(grown.keys) != len(t.keys) {
		t = &grown
		v.table.Store(t)
	}
	v.mu.Unlock()

	slices.SortFunc(pairs, func(a, b idCount) int { return strings.Compare(t.keys[a.id], t.keys[b.id]) })
	out := pairs[:0]
	for _, p := range pairs {
		if last := len(out) - 1; last >= 0 && t.keys[out[last].id] == t.keys[p.id] {
			out[last].n += p.n
			continue
		}
		out = append(out, p)
	}
	return out, t
}

// rowResult is one serving row in compact form: data is the row's JSON
// head, through `"counts":{`, followed by one (vocabulary id, count)
// uvarint pair per count in encoding/json's key order. appendRow expands
// it against its snapshot's vocabulary into exactly the bytes
// json.Marshal writes for the FeatureRow. Rows are immutable once
// encoded; size is the expanded length, which the response writer sizes
// its buffer from, and degraded is the bit the response envelope
// aggregates.
type rowResult struct {
	data     []byte
	head     int
	size     int
	degraded bool
}

// encodeRow renders one census as a compact row, interning its keys in
// v under name, and reports whether the row is deterministic and
// therefore cacheable/shareable: complete rows and budget-truncated rows
// are pure functions of (graph, options, limits); deadline, cancellation
// and panic truncation depend on scheduling and must be recomputed per
// request. A nil census — cancelled before the root was ever assigned —
// is an empty, flagged row, the taxonomy FeatureSet uses for nil rows.
func encodeRow(v *vocab, name func(uint64) string, root graph.NodeID, c *core.Census) (rowResult, bool) {
	flags, truncated, subgraphs := core.FlagCancelled, true, int64(0)
	var (
		pairs []idCount
		t     *vocabTable
	)
	if c != nil {
		flags, truncated, subgraphs = c.Flags, c.Truncated, c.Subgraphs
		pairs, t = v.intern(c.Counts, name)
	}

	var scratch [192]byte
	head := append(scratch[:0], `{"root":`...)
	head = strconv.AppendInt(head, int64(root), 10)
	head = append(head, `,"flags":`...)
	quoted, _ := json.Marshal(flags.String())
	head = append(head, quoted...)
	if truncated {
		head = append(head, `,"truncated":true`...)
	}
	head = append(head, `,"subgraphs":`...)
	head = strconv.AppendInt(head, subgraphs, 10)
	head = append(head, `,"counts":{`...)

	n, size := len(head), len(head)+len("}}")
	var digits [20]byte
	for i, p := range pairs {
		n += uvarintLen(uint64(p.id)) + uvarintLen(uint64(p.n))
		size += len(t.wire[p.id]) + len(strconv.AppendInt(digits[:0], p.n, 10))
		if i > 0 {
			size++
		}
	}
	data := append(make([]byte, 0, n), head...)
	for _, p := range pairs {
		data = binary.AppendUvarint(data, uint64(p.id))
		data = binary.AppendUvarint(data, uint64(p.n))
	}
	res := rowResult{data: data, head: len(head), size: size, degraded: flags != 0}
	return res, c != nil && (c.Flags == 0 || c.Flags == core.FlagBudgetExceeded)
}

// appendRow appends r expanded to its JSON form to dst. t must cover
// every id r holds: any table loaded from r's vocabulary after r was
// encoded does. Expansion is the warm path's main cost, so the one-byte
// uvarints and one- to three-digit counts most pairs carry are decoded
// and written inline.
func appendRow(dst []byte, r rowResult, t *vocabTable) []byte {
	dst = append(dst, r.data[:r.head]...)
	p := r.data[r.head:]
	for i := 0; len(p) > 0; i++ {
		id, k := uint64(p[0]), 1
		if id >= 0x80 {
			id, k = binary.Uvarint(p)
		}
		n, j := uint64(p[k]), 1
		if n >= 0x80 {
			n, j = binary.Uvarint(p[k:])
		}
		p = p[k+j:]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, t.wire[id]...)
		switch {
		case n < 10:
			dst = append(dst, byte('0'+n))
		case n < 100:
			dst = append(dst, byte('0'+n/10), byte('0'+n%10))
		case n < 1000:
			dst = append(dst, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
		default:
			dst = strconv.AppendInt(dst, int64(n), 10)
		}
	}
	return append(dst, '}', '}')
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
