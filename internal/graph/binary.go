package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"unsafe"
)

// Binary graph snapshots.
//
// EncodeBinaryTo lays the Graph's CSR arrays out as little-endian sections
// in one flat payload, each 8-byte aligned relative to the *file* (the
// encoder is told the file offset its payload will start at), so a
// loader that mmaps the enclosing snapshot can alias the arrays straight
// out of the mapping without copying a byte. DecodeBinary does exactly
// that when the payload is suitably aligned and aliasing is requested,
// and falls back to heap copies otherwise — same Graph either way.
//
// Layout (all integers little-endian):
//
//	magic "HSGFGB01" (8 bytes)
//	u64 numNodes | u64 numEdges | u64 numLabels | u64 flags
//	section table: binSections × { u64 byteOffset, u64 elemCount }
//	padding + section data
//
// Sections, in table order:
//
//	labels    []int32  numNodes        node labels
//	offsets   []int32  numNodes+1      CSR offsets
//	adj       []int32  2*numEdges      CSR adjacency, (label,id)-sorted
//	adjEdge   []int32  2*numEdges      edge id per incidence
//	ends      []int32  2*numEdges      edge endpoints, smaller first
//	alphaOffs []int32  numLabels+1     byte offsets into alphaBlob
//	alphaBlob []byte                   concatenated label names
//	nameOffs  []int32  numNodes+1      byte offsets into nameBlob (flagNames)
//	nameBlob  []byte                   concatenated node names   (flagNames)
//
// Byte offsets are relative to the payload start. TSV stays the exchange
// format; this is the boot-path format for graphs too large to re-parse.

const (
	binMagic = "HSGFGB01"
	// binSections is the fixed section-table length; absent sections
	// (names on an anonymous graph) carry offset 0, count 0.
	binSections  = 9
	binHeaderLen = len(binMagic) + 4*8 + binSections*16

	flagNames = 1 << 0
)

// section-table indices.
const (
	secLabels = iota
	secOffsets
	secAdj
	secAdjEdge
	secEnds
	secAlphaOffs
	secAlphaBlob
	secNameOffs
	secNameBlob
)

// align8 returns the smallest d >= 0 such that (off+d) % 8 == 0.
func align8(off int) int {
	return (8 - off%8) % 8
}

// secWidth is the byte width of section i's elements: 1 for the string
// blobs, 4 for the int32 arrays (which are 8-byte aligned in the file).
func secWidth(i int) int {
	if i == secAlphaBlob || i == secNameBlob {
		return 1
	}
	return 4
}

// binLayout is a graph's binary payload layout: header fields and
// every section's byte offset and element count, known before a byte
// is encoded.
type binLayout struct {
	n, m, k      int
	flags        uint64
	offs, counts [binSections]int
	size         int
}

// binaryLayout lays g out as a binary payload starting fileBase bytes
// into the final file (see EncodeBinaryTo). It refuses typed graphs and
// graphs past the int32 format bounds.
func binaryLayout(g *Graph, fileBase int) (*binLayout, error) {
	if err := g.RequireUntyped("graph: binary encoding"); err != nil {
		return nil, err
	}
	l := &binLayout{n: g.NumNodes(), m: g.NumEdges(), k: g.NumLabels()}
	n, m := l.n, l.m
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes / %d edges exceed the int32 binary format bounds", n, m)
	}
	var alphaNames []string
	if g.alphabet != nil {
		alphaNames = g.alphabet.names
	}
	alphaBlob, err := stringsLen(alphaNames)
	if err != nil {
		return nil, fmt.Errorf("graph: label alphabet: %w", err)
	}
	nameOffs, nameBlob := 0, 0
	if g.names != nil {
		l.flags |= flagNames
		if nameBlob, err = stringsLen(g.names); err != nil {
			return nil, fmt.Errorf("graph: node names: %w", err)
		}
		nameOffs = n + 1
	}
	l.counts = [binSections]int{
		secLabels:    n,
		secOffsets:   n + 1,
		secAdj:       2 * m,
		secAdjEdge:   2 * m,
		secEnds:      2 * m,
		secAlphaOffs: len(alphaNames) + 1,
		secAlphaBlob: alphaBlob,
		secNameOffs:  nameOffs,
		secNameBlob:  nameBlob,
	}
	pos := binHeaderLen
	for i, c := range l.counts {
		if c == 0 {
			continue
		}
		if secWidth(i) == 4 {
			pos += align8(fileBase + pos)
		}
		l.offs[i] = pos
		pos += secWidth(i) * c
	}
	l.size = pos
	return l, nil
}

// BinarySize returns the length of g's binary payload at fileBase —
// what EncodeBinaryTo writes — or the error EncodeBinaryTo would
// return before writing.
func BinarySize(g *Graph, fileBase int) (int, error) {
	l, err := binaryLayout(g, fileBase)
	if err != nil {
		return 0, err
	}
	return l.size, nil
}

// EncodeBinary serialises g as a binary graph payload in memory; see
// EncodeBinaryTo.
func EncodeBinary(g *Graph, fileBase int) ([]byte, error) {
	size, err := BinarySize(g, fileBase)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if err := EncodeBinaryTo(buf, g, fileBase); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeBinaryTo writes g's binary graph payload to w, BinarySize bytes
// in order, holding none of it in memory: the CSR arrays go to w as
// they are. fileBase is the offset within the final file at which the
// payload's first byte will land (see store.PayloadOffset); every array
// section is padded so its file offset — and therefore its address in a
// page-aligned mapping — is 8-byte aligned. Pass 0 for a standalone
// payload. The format has no edge-type section, so typed graphs are
// refused (ErrEdgeTyped) before anything is written.
func EncodeBinaryTo(w io.Writer, g *Graph, fileBase int) error {
	l, err := binaryLayout(g, fileBase)
	if err != nil {
		return err
	}
	// bw's first write error sticks: later writes do nothing and Flush
	// returns it, so the writes below go unchecked.
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, binChunk)
	le := binary.LittleEndian
	var hdr [binHeaderLen]byte
	copy(hdr[:], binMagic)
	le.PutUint64(hdr[8:], uint64(l.n))
	le.PutUint64(hdr[16:], uint64(l.m))
	le.PutUint64(hdr[24:], uint64(l.k))
	le.PutUint64(hdr[32:], l.flags)
	for i := 0; i < binSections; i++ {
		le.PutUint64(hdr[40+16*i:], uint64(l.offs[i]))
		le.PutUint64(hdr[48+16*i:], uint64(l.counts[i]))
	}
	bw.Write(hdr[:])
	var alphaNames []string
	if g.alphabet != nil {
		alphaNames = g.alphabet.names
	}
	var zero [8]byte
	end := binHeaderLen // where the previous section ended
	for i := 0; i < binSections; i++ {
		if l.counts[i] == 0 {
			continue
		}
		bw.Write(zero[:l.offs[i]-end])
		end = l.offs[i] + secWidth(i)*l.counts[i]
		switch i {
		case secLabels:
			writeInt32s(bw, g.labels)
		case secOffsets:
			writeInt32s(bw, g.offsets)
		case secAdj:
			writeInt32s(bw, g.adj)
		case secAdjEdge:
			writeInt32s(bw, g.adjEdge)
		case secEnds:
			writeInt32s(bw, g.ends)
		case secAlphaOffs:
			writeStringOffsets(bw, alphaNames)
		case secAlphaBlob:
			writeStrings(bw, alphaNames)
		case secNameOffs:
			writeStringOffsets(bw, g.names)
		case secNameBlob:
			writeStrings(bw, g.names)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if cw.n != l.size {
		return fmt.Errorf("graph: binary encoding wrote %d bytes, layout says %d", cw.n, l.size)
	}
	return nil
}

// stringsLen returns the concatenated length of strs. Blobs past the
// int32 offset range are an error — mirroring the node/edge bound —
// since a wrapped offset would write a silently corrupt table.
func stringsLen(strs []string) (int, error) {
	total := 0
	for _, s := range strs {
		total += len(s)
	}
	if total > math.MaxInt32 {
		return 0, fmt.Errorf("string blob of %d bytes exceeds the int32 binary format bounds", total)
	}
	return total, nil
}

// binChunk is EncodeBinaryTo's buffer size: the small pieces (header,
// padding, offset tables, strings) gather into writes of this size.
const binChunk = 32 << 10

// countWriter counts the bytes that reach w.
type countWriter struct {
	w io.Writer
	n int
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += n
	return n, err
}

// writeStringOffsets emits the cumulative byte offset table of strs
// (len(strs)+1 entries) that unpackStrings reads.
func writeStringOffsets(bw *bufio.Writer, strs []string) {
	var b [4]byte
	pos := 0
	for _, s := range strs {
		binary.LittleEndian.PutUint32(b[:], uint32(pos))
		bw.Write(b[:])
		pos += len(s)
	}
	binary.LittleEndian.PutUint32(b[:], uint32(pos))
	bw.Write(b[:])
}

// writeStrings emits the concatenation of strs.
func writeStrings(bw *bufio.Writer, strs []string) {
	for _, s := range strs {
		bw.WriteString(s)
	}
}

// writeInt32s emits vals little-endian. On little-endian hardware the
// array's own memory is the encoding and goes to bw's Write whole, which
// passes it on without a copy once the buffer is drained; elsewhere it
// is converted a value at a time.
func writeInt32s[T ~int32](bw *bufio.Writer, vals []T) {
	if len(vals) == 0 {
		return
	}
	if littleEndianHost {
		bw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 4*len(vals)))
		return
	}
	var b [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		bw.Write(b[:])
	}
}

// DecodeBinary parses a binary graph payload. With alias true, int32
// array sections whose addresses are 4-byte aligned are aliased directly
// out of data — the zero-copy mmap path; the caller then owns keeping
// data's backing memory mapped for the Graph's lifetime. Misaligned
// sections (or alias false) are copied to the heap. The returned bool
// reports whether any section was aliased.
//
// Every structural property later code indexes on is validated before
// returning: section bounds, offset monotonicity, label/neighbour/edge-id
// ranges, and per-node (label, id) adjacency order. Hostile input gets an
// error, never a panic.
func DecodeBinary(data []byte, alias bool) (*Graph, bool, error) {
	if len(data) < binHeaderLen || string(data[:len(binMagic)]) != binMagic {
		return nil, false, fmt.Errorf("graph: not a binary graph payload")
	}
	le := binary.LittleEndian
	n64 := le.Uint64(data[8:])
	m64 := le.Uint64(data[16:])
	k64 := le.Uint64(data[24:])
	flags := le.Uint64(data[32:])
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 || k64 > math.MaxInt32 {
		return nil, false, fmt.Errorf("graph: binary header counts out of range (%d nodes, %d edges, %d labels)", n64, m64, k64)
	}
	n, m, k := int(n64), int(m64), int(k64)

	var offs, counts [binSections]int
	for i := 0; i < binSections; i++ {
		o, c := le.Uint64(data[40+16*i:]), le.Uint64(data[48+16*i:])
		if o > uint64(len(data)) || c > uint64(len(data)) {
			return nil, false, fmt.Errorf("graph: binary section %d out of bounds", i)
		}
		offs[i], counts[i] = int(o), int(c)
	}
	wantCounts := [binSections]int{
		secLabels: n, secOffsets: n + 1, secAdj: 2 * m, secAdjEdge: 2 * m, secEnds: 2 * m,
		secAlphaOffs: k + 1, secAlphaBlob: counts[secAlphaBlob],
		secNameOffs: 0, secNameBlob: counts[secNameBlob],
	}
	if flags&flagNames != 0 {
		wantCounts[secNameOffs] = n + 1
	}
	for i, want := range wantCounts {
		if counts[i] != want {
			return nil, false, fmt.Errorf("graph: binary section %d holds %d elements, want %d", i, counts[i], want)
		}
		width := 4
		if i == secAlphaBlob || i == secNameBlob {
			width = 1
		}
		if counts[i] > 0 && (offs[i] < binHeaderLen || offs[i]+width*counts[i] > len(data)) {
			return nil, false, fmt.Errorf("graph: binary section %d [%d, +%d) outside payload of %d bytes", i, offs[i], width*counts[i], len(data))
		}
	}

	aliased := false
	i32 := func(sec int) []int32 {
		s, ok := int32sOf[int32](data, offs[sec], counts[sec], alias)
		aliased = aliased || ok
		return s
	}
	labels, lok := int32sOf[Label](data, offs[secLabels], counts[secLabels], alias)
	adjS, aok := int32sOf[NodeID](data, offs[secAdj], counts[secAdj], alias)
	adjE, eok := int32sOf[EdgeID](data, offs[secAdjEdge], counts[secAdjEdge], alias)
	endsS, nok := int32sOf[NodeID](data, offs[secEnds], counts[secEnds], alias)
	offsets := i32(secOffsets)
	aliased = aliased || lok || aok || eok || nok

	// Alphabet and names always materialise on the heap: Go strings
	// cannot alias foreign memory safely. Both are O(labels) and
	// O(named nodes) — not CSR payload.
	alphaOffs := i32(secAlphaOffs)
	alphabet, err := unpackAlphabet(alphaOffs, data[offs[secAlphaBlob]:offs[secAlphaBlob]+counts[secAlphaBlob]])
	if err != nil {
		return nil, false, err
	}
	if alphabet.Len() != k {
		return nil, false, fmt.Errorf("graph: alphabet decoded %d labels, header says %d", alphabet.Len(), k)
	}
	var names []string
	if flags&flagNames != 0 {
		nameOffs := i32(secNameOffs)
		names, err = unpackStrings(nameOffs, data[offs[secNameBlob]:offs[secNameBlob]+counts[secNameBlob]])
		if err != nil {
			return nil, false, fmt.Errorf("graph: node names: %w", err)
		}
	}

	g := &Graph{
		labels: labels, names: names,
		offsets: offsets, adj: adjS, adjEdge: adjE, ends: endsS,
		alphabet: alphabet, numEdges: m,
	}
	if err := validateDecoded(g, n, m, k); err != nil {
		return nil, false, err
	}
	return g, aliased, nil
}

// validateDecoded bounds-checks every index a decoded graph will be
// dereferenced through, plus the (label, id) adjacency order the census
// heuristics rely on. Linear passes over the CSR arrays; the adjacency
// walk, the costly one, runs on every core for large graphs.
func validateDecoded(g *Graph, n, m, k int) error {
	if len(g.offsets) != n+1 || g.offsets[0] != 0 || int(g.offsets[n]) != 2*m {
		return fmt.Errorf("graph: binary offsets malformed")
	}
	for _, l := range g.labels {
		if int(l) < 0 || int(l) >= k {
			return fmt.Errorf("graph: binary label %d outside alphabet of %d", l, k)
		}
	}
	// Bound every offset before any slicing: monotonicity alone does not
	// cap an intermediate entry until the walk reaches the pinned last
	// one, and slicing through an unchecked entry would panic.
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] || int(g.offsets[v+1]) > 2*m {
			return fmt.Errorf("graph: binary offsets malformed at node %d", v)
		}
	}
	for i := 0; i < m; i++ {
		u, v := g.ends[2*i], g.ends[2*i+1]
		if int(u) < 0 || int(v) >= n || u >= v {
			return fmt.Errorf("graph: binary edge %d endpoints (%d, %d) invalid", i, u, v)
		}
	}
	return checkAdjacency(g, n, m)
}

// adjRangeMin is the fewest incidences the adjacency walk hands to a
// goroutine of its own: below it, starting and joining the goroutine
// costs about as much as the walk it takes over. A fixed property of
// the walk, not a tuning knob.
const adjRangeMin = 1 << 16

// checkAdjacency runs the per-incidence checks of validateDecoded. A
// graph with at least two adjRangeMin shares of incidences is split
// into up to GOMAXPROCS node ranges of about equal incidence count,
// walked concurrently. Each range stops at its own first failure and
// the lowest failing range's error is returned: ranges ascend by node,
// so that is exactly the error the sequential walk reports.
func checkAdjacency(g *Graph, n, m int) error {
	parts := min(runtime.GOMAXPROCS(0), 2*m/adjRangeMin)
	if parts < 2 {
		return checkAdjacencyRange(g, 0, n, n, m)
	}
	bounds := adjacencyRanges(g.offsets, n, m, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = checkAdjacencyRange(g, bounds[p], bounds[p+1], n, m)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// adjacencyRanges cuts nodes [0, n) into parts ranges of about 2m/parts
// incidences each; range p is [bounds[p], bounds[p+1]). offsets must be
// validated (monotone, offsets[n] == 2m).
func adjacencyRanges(offsets []int32, n, m, parts int) []int {
	bounds := make([]int, parts+1)
	bounds[parts] = n
	for p := 1; p < parts; p++ {
		target := int32(2 * int64(m) * int64(p) / int64(parts))
		lo := bounds[p-1]
		bounds[p] = lo + sort.Search(n-lo, func(i int) bool { return offsets[lo+i] >= target })
	}
	return bounds
}

// checkAdjacencyRange walks the adjacency of nodes [from, to). Walking
// every node covers every incidence (offsets[n] == 2m is pinned by the
// caller), so this subsumes a separate adjEdge range pass. Each
// incidence's edge id must round-trip through ends to the same node
// pair — in-bounds but disagreeing tables would make IncidentEdges and
// EdgeEndpoints silently contradict each other.
func checkAdjacencyRange(g *Graph, from, to, n, m int) error {
	for v := from; v < to; v++ {
		adj := g.adj[g.offsets[v]:g.offsets[v+1]]
		eids := g.adjEdge[g.offsets[v]:g.offsets[v+1]]
		for i, w := range adj {
			if int(w) < 0 || int(w) >= n || w == NodeID(v) {
				return fmt.Errorf("graph: binary adjacency of node %d holds invalid neighbour %d", v, w)
			}
			if i > 0 {
				p := adj[i-1]
				if g.labels[p] > g.labels[w] || (g.labels[p] == g.labels[w] && p >= w) {
					return fmt.Errorf("graph: binary adjacency of node %d not (label,id)-sorted", v)
				}
			}
			e := eids[i]
			if int(e) < 0 || int(e) >= m {
				return fmt.Errorf("graph: binary incidence references edge %d of %d", e, m)
			}
			lo, hi := NodeID(v), w
			if lo > hi {
				lo, hi = hi, lo
			}
			if g.ends[2*e] != lo || g.ends[2*e+1] != hi {
				return fmt.Errorf("graph: binary incidence (%d, %d) carries edge %d whose endpoints are (%d, %d)",
					v, w, e, g.ends[2*e], g.ends[2*e+1])
			}
		}
	}
	return nil
}

// int32sOf views n little-endian int32 values at data[off:] as a []T.
// When alias is set and the address is int32-aligned it aliases data
// directly (true); otherwise it copies (false). Only correct on
// little-endian hosts for the alias path; the copy path byte-swaps as
// needed and is the implicit fallback on big-endian hardware.
func int32sOf[T ~int32](data []byte, off, n int, alias bool) ([]T, bool) {
	if n == 0 {
		return nil, false
	}
	src := data[off : off+4*n]
	if alias && littleEndianHost && uintptr(unsafe.Pointer(&src[0]))%4 == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&src[0])), n), true
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(src[4*i:]))) //nolint:gosec // bounds checked above
	}
	return out, false
}

// littleEndianHost is computed once; the alias fast path is only valid
// when the file byte order matches the host's.
var littleEndianHost = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// unpackAlphabet rebuilds the label alphabet from its offset table and
// blob, re-running NewAlphabet's duplicate/empty validation.
func unpackAlphabet(offs []int32, blob []byte) (*Alphabet, error) {
	names, err := unpackStrings(offs, blob)
	if err != nil {
		return nil, fmt.Errorf("graph: label alphabet: %w", err)
	}
	a, err := NewAlphabet(names...)
	if err != nil {
		return nil, fmt.Errorf("graph: binary alphabet: %w", err)
	}
	return a, nil
}

// unpackStrings splits blob at the cumulative offsets. Empty entries
// share the empty string, so anonymous nodes cost nothing.
func unpackStrings(offs []int32, blob []byte) ([]string, error) {
	if len(offs) == 0 {
		return nil, fmt.Errorf("missing offset table")
	}
	out := make([]string, len(offs)-1)
	for i := range out {
		lo, hi := offs[i], offs[i+1]
		if lo < 0 || lo > hi || int(hi) > len(blob) {
			return nil, fmt.Errorf("offset table entry %d [%d, %d) outside blob of %d bytes", i, lo, hi, len(blob))
		}
		if lo != hi {
			out[i] = string(blob[lo:hi])
		}
	}
	if int(offs[len(offs)-1]) != len(blob) {
		return nil, fmt.Errorf("offset table covers %d of %d blob bytes", offs[len(offs)-1], len(blob))
	}
	return out, nil
}
