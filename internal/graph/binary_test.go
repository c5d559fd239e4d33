package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// randomGraph builds a seeded random heterogeneous graph, sometimes with
// node names and duplicate AddEdge calls, exercising the builder paths a
// snapshot must survive.
func randomSnapGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	labels := []string{"author", "paper", "venue", "term"}[:1+rng.Intn(4)]
	b := NewBuilderWithAlphabet(MustAlphabet(labels...))
	named := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		id, err := b.AddLabeledNode(Label(rng.Intn(len(labels))))
		if err != nil {
			t.Fatal(err)
		}
		if named && rng.Intn(4) == 0 {
			b.SetName(id, "node-"+string(rune('a'+rng.Intn(26)))+string(rune('0'+i%10)))
		}
	}
	edges := rng.Intn(4 * n)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdge(NodeID(u), NodeID(v)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireGraphsEqual compares two graphs observation-by-observation:
// alphabet, labels, names, adjacency (with incident edge ids), endpoints,
// and full Edges iteration order.
func requireGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() || got.NumLabels() != want.NumLabels() {
		t.Fatalf("shape mismatch: got %v, want %v", got, want)
	}
	wantNames := want.Alphabet().Names()
	gotNames := got.Alphabet().Names()
	for i := range wantNames {
		if wantNames[i] != gotNames[i] {
			t.Fatalf("alphabet[%d] = %q, want %q", i, gotNames[i], wantNames[i])
		}
		if l, ok := got.Alphabet().Lookup(wantNames[i]); !ok || l != Label(i) {
			t.Fatalf("alphabet lookup %q = (%d, %v)", wantNames[i], l, ok)
		}
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if got.Label(v) != want.Label(v) {
			t.Fatalf("label(%d) = %d, want %d", v, got.Label(v), want.Label(v))
		}
		if got.Name(v) != want.Name(v) {
			t.Fatalf("name(%d) = %q, want %q", v, got.Name(v), want.Name(v))
		}
		wa, ga := want.Neighbors(v), got.Neighbors(v)
		we, ge := want.IncidentEdges(v), got.IncidentEdges(v)
		if len(wa) != len(ga) {
			t.Fatalf("degree(%d) = %d, want %d", v, len(ga), len(wa))
		}
		for i := range wa {
			if wa[i] != ga[i] || we[i] != ge[i] {
				t.Fatalf("adjacency(%d)[%d] = (%d, e%d), want (%d, e%d)", v, i, ga[i], ge[i], wa[i], we[i])
			}
		}
	}
	for e := EdgeID(0); int(e) < want.NumEdges(); e++ {
		wu, wv := want.EdgeEndpoints(e)
		gu, gv := got.EdgeEndpoints(e)
		if wu != gu || wv != gv {
			t.Fatalf("edge %d = (%d, %d), want (%d, %d)", e, gu, gv, wu, wv)
		}
	}
	var wantEdges, gotEdges [][2]NodeID
	want.Edges(func(u, v NodeID) bool { wantEdges = append(wantEdges, [2]NodeID{u, v}); return true })
	got.Edges(func(u, v NodeID) bool { gotEdges = append(gotEdges, [2]NodeID{u, v}); return true })
	if len(wantEdges) != len(gotEdges) {
		t.Fatalf("Edges yielded %d pairs, want %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, gotEdges[i], wantEdges[i])
		}
	}
}

// TestBinaryRoundTrip pins the binary codec against random graphs in both
// decode modes and at both aligned and misaligned base offsets.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomSnapGraph(t, rng, 1+rng.Intn(120))
		base := rng.Intn(64) // arbitrary file offsets, aligned or not
		payload, err := EncodeBinary(g, base)
		if err != nil {
			t.Fatal(err)
		}
		// Re-create the promised file placement: the payload's first byte
		// sits at file offset base, so shift the buffer accordingly
		// before aliasing.
		file := append(make([]byte, base), payload...)
		view := file[base:]

		for _, alias := range []bool{false, true} {
			got, aliased, err := DecodeBinary(view, alias)
			if err != nil {
				t.Fatalf("trial %d alias=%v: %v", trial, alias, err)
			}
			if alias && g.NumNodes() > 0 && !aliased {
				// The encoder aligned sections for this base; aliasing
				// must engage whenever the slice lands on its promised
				// offset modulo 8 (true here: file starts at offset 0 of
				// a fresh allocation, which Go aligns to at least 8).
				t.Fatalf("trial %d: alias requested but decode copied", trial)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d alias=%v: decoded graph invalid: %v", trial, alias, err)
			}
			requireGraphsEqual(t, g, got)
		}
	}
}

// TestBinaryMisalignedFallsBackToCopy shifts the payload off its
// promised alignment; decode must transparently copy, never alias a
// misaligned pointer, and still produce an identical graph.
func TestBinaryMisalignedFallsBackToCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomSnapGraph(t, rng, 80)
	payload, err := EncodeBinary(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	shifted := append(make([]byte, 1), payload...) // everything now odd-aligned
	got, aliased, err := DecodeBinary(shifted[1:], true)
	if err != nil {
		t.Fatal(err)
	}
	if aliased {
		t.Fatal("decode aliased a misaligned payload")
	}
	requireGraphsEqual(t, g, got)
}

// TestBinaryEmptyGraph round-trips the degenerate shapes.
func TestBinaryEmptyGraph(t *testing.T) {
	for _, build := range []func() *Graph{
		func() *Graph { return NewBuilder().MustBuild() },
		func() *Graph { return NewBuilderWithAlphabet(MustAlphabet("only")).MustBuild() },
		func() *Graph {
			b := NewBuilderWithAlphabet(MustAlphabet("only"))
			b.AddLabeledNode(0)
			b.AddLabeledNode(0)
			return b.MustBuild()
		},
	} {
		g := build()
		payload, err := EncodeBinary(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeBinary(payload, true)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsEqual(t, g, got)
	}
}

// TestBinaryDecodeRejectsCorruption flips bytes across the payload; the
// decoder must reject or — when the flip lands in dead padding — still
// produce a structurally valid graph. It must never panic.
func TestBinaryDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomSnapGraph(t, rng, 60)
	payload, err := EncodeBinary(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte{}, payload...)
		mut[rng.Intn(len(mut))] ^= byte(1) << rng.Intn(8)
		got, _, err := DecodeBinary(mut, false)
		if err != nil {
			continue
		}
		// Accepted: the flip must not have produced an unsafe graph. The
		// decoder guarantees indexing safety; probe the hot accessors.
		for v := NodeID(0); int(v) < got.NumNodes(); v++ {
			got.Neighbors(v)
			got.NeighborLabelRuns(v)
		}
	}
	// Truncations at every prefix length must be rejected or safe too.
	for cut := 0; cut < len(payload); cut += 13 {
		if _, _, err := DecodeBinary(payload[:cut], false); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestBuildParallelMatchesSerial pins the parallel Build output bitwise
// against the one-worker path over random graphs large enough to engage
// every parallel stage.
func TestBuildParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		n := 500 + rng.Intn(1500)
		m := parallelBuildMin + rng.Intn(parallelBuildMin)
		labels := MustAlphabet("a", "b", "c")
		mk := func() *Builder {
			return NewBuilderWithAlphabet(labels)
		}
		seed := rng.Int63()
		fill := func(b *Builder) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				b.AddLabeledNode(Label(r.Intn(3)))
			}
			for i := 0; i < m; i++ {
				u, v := r.Intn(n), r.Intn(n)
				if u != v {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		serial, parallel := mk(), mk()
		fill(serial)
		fill(parallel)
		gs, err := serial.build(1)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := parallel.build(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := gp.Validate(); err != nil {
			t.Fatalf("parallel build invalid: %v", err)
		}
		requireGraphsEqual(t, gs, gp)

		// The TSV rendering is a byte-level fingerprint of the whole
		// structure; require exact agreement there too.
		var bs, bp bytes.Buffer
		if err := WriteTSV(&bs, gs); err != nil {
			t.Fatal(err)
		}
		if err := WriteTSV(&bp, gp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bs.Bytes(), bp.Bytes()) {
			t.Fatal("parallel and serial builds render differently")
		}
	}
}

// TestEncodeBinaryRejectsOversizedBlob pins the blob-size bound: a name
// blob whose cumulative length exceeds int32 must be rejected up front,
// not written with silently wrapped offsets. The test shares one big
// string across many nodes so the check trips before any multi-GiB blob
// is materialised.
func TestEncodeBinaryRejectsOversizedBlob(t *testing.T) {
	big := strings.Repeat("x", 1<<27) // 128 MiB, shared backing
	names := make([]string, 17)       // 17 × 128 MiB > MaxInt32
	for i := range names {
		names[i] = big
	}
	if _, err := stringsLen(names); err == nil {
		t.Fatal("stringsLen accepted a >2GiB blob")
	}

	b := NewBuilderWithAlphabet(MustAlphabet("a"))
	for i := 0; i < len(names); i++ {
		id, err := b.AddLabeledNode(0)
		if err != nil {
			t.Fatal(err)
		}
		b.SetName(id, big)
	}
	g := b.MustBuild()
	if _, err := EncodeBinary(g, 0); err == nil {
		t.Fatal("EncodeBinary accepted >2GiB of node names")
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct{ limit int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		n := f.limit
		f.limit = 0
		return n, fmt.Errorf("disk full")
	}
	f.limit -= len(p)
	return len(p), nil
}

// TestEncodeBinaryToSurfacesWriteErrors cuts the writer off at offsets
// across a named graph's payload (header, arrays, name tables, last
// byte): EncodeBinaryTo must return the error, never nil or a panic,
// and a writer that takes everything must get BinarySize bytes.
func TestEncodeBinaryToSurfacesWriteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var g *Graph
	for g == nil || g.names == nil {
		g = randomSnapGraph(t, rng, 3000)
	}
	size, err := BinarySize(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, binHeaderLen, binChunk - 1, binChunk + 3, size / 2, size - 1} {
		if err := EncodeBinaryTo(&failAfter{limit: cut}, g, 5); err == nil {
			t.Fatalf("cut at %d of %d bytes: no error", cut, size)
		}
	}
	var buf bytes.Buffer
	if err := EncodeBinaryTo(&buf, g, 5); err != nil || buf.Len() != size {
		t.Fatalf("full write: %d bytes, err %v; want %d", buf.Len(), err, size)
	}
}

// TestBinaryDecodeRejectsMismatchedEnds swaps two edges' entries in the
// ends section: each entry stays individually in bounds and
// smaller-first, but the incidences' edge ids now resolve to the wrong
// node pairs. The decoder must reject the payload rather than let
// IncidentEdges→EdgeEndpoints silently contradict the adjacency.
func TestBinaryDecodeRejectsMismatchedEnds(t *testing.T) {
	b := NewBuilderWithAlphabet(MustAlphabet("a"))
	for i := 0; i < 4; i++ {
		b.AddLabeledNode(0)
	}
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	payload, err := EncodeBinary(b.MustBuild(), 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int(binary.LittleEndian.Uint64(payload[40+16*secEnds:]))
	var tmp [8]byte
	copy(tmp[:], payload[off:off+8])
	copy(payload[off:off+8], payload[off+8:off+16])
	copy(payload[off+8:off+16], tmp[:])
	for _, alias := range []bool{false, true} {
		if _, _, err := DecodeBinary(payload, alias); err == nil {
			t.Fatalf("alias=%v: ends/incidence mismatch accepted", alias)
		}
	}
}

// TestParallelAdjacencyCheckMatchesSequential corrupts a graph large
// enough for the adjacency walk to split into four ranges, first inside
// one range, then inside two, and decodes it on one and on four
// processors. Both must report the same error: the sequential walk's,
// at the lowest corrupted node, whichever check it trips.
func TestParallelAdjacencyCheckMatchesSequential(t *testing.T) {
	const parts = 4
	rng := rand.New(rand.NewSource(21))
	b := NewBuilderWithAlphabet(MustAlphabet("a", "b", "c"))
	const n = 30000
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(Label(rng.Intn(3))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < parts*adjRangeMin/2+n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if err := b.AddEdge(NodeID(u), NodeID(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.MustBuild()
	if 2*g.NumEdges() < parts*adjRangeMin {
		t.Fatalf("%d edges do not fill %d ranges", g.NumEdges(), parts)
	}
	payload, err := EncodeBinary(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := adjacencyRanges(g.offsets, n, g.NumEdges(), parts)
	adjOff := int(binary.LittleEndian.Uint64(payload[40+16*secAdj:]))
	setAdj := func(data []byte, i int, w NodeID) {
		binary.LittleEndian.PutUint32(data[adjOff+4*i:], uint32(w))
	}
	// selfLoop makes node v list itself; unsorted repeats v's first
	// neighbour in its second slot.
	selfLoop := func(data []byte, v int) { setAdj(data, int(g.offsets[v]), NodeID(v)) }
	unsorted := func(data []byte, v int) { setAdj(data, int(g.offsets[v])+1, g.adj[g.offsets[v]]) }
	mid := func(r int) int {
		v := (bounds[r] + bounds[r+1]) / 2
		for g.Degree(NodeID(v)) < 2 {
			v++
		}
		return v
	}

	decode := func(data []byte, procs int) error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		_, _, err := DecodeBinary(data, false)
		return err
	}
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
		node    int
	}{
		{"one range", func(d []byte) { unsorted(d, mid(2)) }, mid(2)},
		{"two ranges", func(d []byte) { selfLoop(d, mid(3)); unsorted(d, mid(1)) }, mid(1)},
		{"two ranges, other checks", func(d []byte) { unsorted(d, mid(3)); selfLoop(d, mid(0)) }, mid(0)},
	} {
		data := append([]byte(nil), payload...)
		tc.corrupt(data)
		seq, par := decode(data, 1), decode(data, parts)
		if seq == nil || par == nil {
			t.Fatalf("%s: corruption accepted (sequential %v, parallel %v)", tc.name, seq, par)
		}
		if seq.Error() != par.Error() {
			t.Errorf("%s: parallel walk reports %q, sequential %q", tc.name, par, seq)
		}
		if want := fmt.Sprintf("node %d ", tc.node); !strings.Contains(seq.Error(), want) {
			t.Errorf("%s: %q does not name the lowest corrupted node %d", tc.name, seq, tc.node)
		}
	}
	if err := decode(payload, parts); err != nil {
		t.Fatalf("pristine payload: %v", err)
	}
}
