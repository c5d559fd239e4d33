package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// referenceRow is the row the compact form stands for: counts keyed by
// encoding string in a map, as json.Marshal(FeatureRow) writes it.
func referenceRow(ex *core.Extractor, root graph.NodeID, c *core.Census) FeatureRow {
	if c == nil {
		return FeatureRow{Root: int64(root), Flags: core.FlagCancelled.String(), Truncated: true, Counts: map[string]int64{}}
	}
	row := FeatureRow{Root: int64(root), Flags: c.Flags.String(), Truncated: c.Truncated, Subgraphs: c.Subgraphs,
		Counts: make(map[string]int64, len(c.Counts))}
	for key, n := range c.Counts {
		row.Counts[ex.EncodingString(key)] = n
	}
	return row
}

func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// expand is the response writer's view of one row.
func expand(v *vocab, r rowResult) string {
	out := appendRow(nil, r, v.table.Load())
	if len(out) != r.size {
		return fmt.Sprintf("recorded size %d, expanded %d bytes: %s", r.size, len(out), out)
	}
	return string(out)
}

// escapeGraph labels its nodes with names encoding/json must escape or
// rewrite — HTML characters, quotes, backslashes, U+2028, non-ASCII and
// invalid UTF-8 — and leaves its last node isolated, so that root's
// census is complete and empty.
func escapeGraph(t testing.TB) *graph.Graph {
	t.Helper()
	names := []string{"<a>", `b&"c`, `d\e`, "f\u2028g", "été", "\xffh", "i"}
	b := graph.NewBuilderWithAlphabet(graph.MustAlphabet(names...))
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := b.AddLabeledNode(graph.Label(i % len(names))); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < n-1; v++ {
		for _, d := range []int{1, 3, 7} {
			if u := (v + d) % (n - 1); u != v {
				if err := b.AddEdge(graph.NodeID(v), graph.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.MustBuild()
}

// TestCompactRowMatchesMarshal pins the wire bytes of the compact row
// form: expanded, a row equals json.Marshal(FeatureRow) of the same
// census for complete, budget-truncated, empty and cancelled (nil) rows
// over label names encoding/json escapes, and whole responses — with
// the cache on (cold and warm) and off — equal encoding/json's body.
func TestCompactRowMatchesMarshal(t *testing.T) {
	g := escapeGraph(t)
	ex, err := core.NewExtractor(g, core.Options{MaxEdges: 3, MaskRootLabel: true})
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]graph.NodeID, g.NumNodes())
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	isolated := roots[len(roots)-1]

	v := newVocab()
	check := func(root graph.NodeID, c *core.Census) {
		t.Helper()
		res, _ := encodeRow(v, ex.EncodingString, root, c)
		if got, want := expand(v, res), mustMarshal(t, referenceRow(ex, root, c)); got != want {
			t.Fatalf("root %d:\ncompact: %s\nmarshal: %s", root, got, want)
		}
	}
	var truncated, escaped int
	for _, lim := range []core.RootLimits{{}, {Budget: 5}} {
		censuses, err := ex.CensusAllWithLimits(context.Background(), roots, 2, lim)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range censuses {
			check(roots[i], c)
			if c.Truncated {
				truncated++
			}
			for key := range c.Counts {
				if s := ex.EncodingString(key); mustMarshal(t, s) != `"`+s+`"` {
					escaped++
				}
			}
		}
		if c := censuses[isolated]; len(c.Counts) != 0 || c.Flags != 0 {
			t.Fatalf("isolated root census = %+v, want complete and empty", c)
		}
	}
	check(3, nil)
	if truncated == 0 || escaped == 0 {
		t.Fatalf("fixture covers %d truncated rows and %d escaped keys, want both > 0", truncated, escaped)
	}

	// Whole responses, duplicates and the empty row included.
	for _, body := range []string{
		fmt.Sprintf(`{"roots":[0,1,2,3,4,5,6,%d,0]}`, isolated),
		`{"roots":[7,8,9],"root_budget":5}`,
	} {
		var req FeaturesRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		ids := make([]graph.NodeID, len(req.Roots))
		for i, r := range req.Roots {
			ids[i] = graph.NodeID(r)
		}
		censuses, err := ex.CensusAllWithLimits(context.Background(), ids, 1, core.RootLimits{Budget: req.RootBudget})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{{}, {RowCache: -1}} {
			s := NewServer(ex, cfg)
			want := FeaturesResponse{Fingerprint: s.Snapshot().Fingerprint}
			for i, c := range censuses {
				want.Rows = append(want.Rows, referenceRow(ex, ids[i], c))
				want.Degraded = want.Degraded || c.Flags != 0
			}
			var enc strings.Builder
			if err := json.NewEncoder(&enc).Encode(want); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				w := doJSON(t, s, http.MethodPost, "/v1/features", body, nil)
				if got := normalizeElapsed(w.Body.String()); got != enc.String() {
					t.Fatalf("%s, cache %d, pass %d:\nserved:  %s\nmarshal: %s", body, cfg.RowCache, pass, got, enc.String())
				}
			}
		}
	}
}

// FuzzCompactRow: for any count map over any key strings — escaped,
// invalid UTF-8, repeated — and any head fields, the expanded compact
// row equals json.Marshal of the FeatureRow, with counts of keys that
// render to one string summed. Encoding the same row again against the
// now-populated vocabulary gives the same bytes.
func FuzzCompactRow(f *testing.F) {
	f.Add(int32(7), uint8(0), false, int64(12), "z010\x00<b>&\x00f\u2028g\x00\xff", []byte{2, 4, 200, 1})
	f.Add(int32(-1), uint8(1), true, int64(-5), "a\x00a\x00\"\\", []byte{1, 127, 128, 2})
	f.Add(int32(0), uint8(0xff), true, int64(0), "", []byte{})
	var edges []byte // counts at appendRow's digit-count boundaries
	for _, n := range []int64{9, 10, 99, 100, 999, 1000, -1, math.MinInt64, math.MaxInt64} {
		edges = binary.AppendVarint(edges, n)
	}
	f.Add(int32(3), uint8(0), false, int64(1), "a\x00b\x00c\x00d\x00e\x00f\x00g\x00h\x00i", edges)
	f.Fuzz(func(t *testing.T, root int32, flags uint8, truncated bool, subgraphs int64, names string, counts []byte) {
		c := &core.Census{Flags: core.CensusFlag(flags), Truncated: truncated, Subgraphs: subgraphs, Counts: map[uint64]int64{}}
		want := FeatureRow{Root: int64(root), Flags: c.Flags.String(), Truncated: truncated, Subgraphs: subgraphs, Counts: map[string]int64{}}
		keys := strings.Split(names, "\x00")
		for i, name := range keys {
			n, k := binary.Varint(counts)
			if k <= 0 {
				n = int64(i + 1)
			} else {
				counts = counts[k:]
			}
			c.Counts[uint64(i)] = n
			want.Counts[name] += n
		}
		name := func(key uint64) string { return keys[key] }
		v := newVocab()
		for pass := 0; pass < 2; pass++ {
			res, _ := encodeRow(v, name, graph.NodeID(root), c)
			if got, exp := expand(v, res), mustMarshal(t, want); got != exp {
				t.Fatalf("pass %d:\ncompact: %s\nmarshal: %s", pass, got, exp)
			}
		}
	})
}

// heldBytes sums the compact row bytes the cache's entries hold.
func heldBytes(c *rowCache) int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			n += int64(len(e.res.data))
		}
		sh.mu.Unlock()
	}
	return n
}

// TestRowCacheBytesGauge: the bytes gauge is the sum of the rows held
// through put, replace, stale unlink and eviction, and /debug/stats and
// /v1/meta both report it with the snapshot's interned key count.
func TestRowCacheBytesGauge(t *testing.T) {
	c := newRowCache(cacheShardCount) // one row per shard
	k := func(budget int64) rowKey { return rowKey{root: 7, budget: budget} }
	steps := []struct {
		name  string
		do    func()
		bytes int64
	}{
		{"put", func() { c.put(k(1), 1, rowResult{data: make([]byte, 30)}) }, 30},
		{"replace", func() { c.put(k(1), 1, rowResult{data: make([]byte, 20)}) }, 20},
		{"evict", func() { c.put(k(2), 1, rowResult{data: make([]byte, 5)}) }, 5},
		{"stale", func() { c.get(k(2), 2) }, 0},
	}
	for _, st := range steps {
		st.do()
		if _, got := c.usage(); got != st.bytes || got != heldBytes(c) {
			t.Fatalf("after %s: gauge %d, held %d, want %d", st.name, got, heldBytes(c), st.bytes)
		}
	}

	s, _ := newTestServer(t, Config{RowCache: cacheShardCount})
	stats := func() *CacheStats {
		t.Helper()
		var st StatsSnapshot
		doJSON(t, s, http.MethodGet, "/debug/stats", "", &st)
		var meta MetaResponse
		doJSON(t, s, http.MethodGet, "/v1/meta", "", &meta)
		if st.Cache == nil || meta.Cache == nil {
			t.Fatal("cache block missing")
		}
		if st.Cache.Bytes != meta.Cache.Bytes || st.Cache.VocabKeys != meta.Cache.VocabKeys {
			t.Fatalf("/debug/stats %+v and /v1/meta %+v disagree", st.Cache, meta.Cache)
		}
		if st.Cache.Bytes != heldBytes(s.cache) || st.Cache.VocabKeys != s.Snapshot().vocab.size() {
			t.Fatalf("gauges %+v, held %d bytes, %d keys", st.Cache, heldBytes(s.cache), s.Snapshot().vocab.size())
		}
		return st.Cache
	}
	if st := stats(); st.Bytes != 0 || st.VocabKeys != 0 {
		t.Fatalf("fresh server: %+v", st)
	}
	var last *CacheStats
	for root := 0; root < 30; root++ {
		doJSON(t, s, http.MethodPost, "/v1/features", fmt.Sprintf(`{"roots":[%d]}`, root), nil)
		st := stats()
		if last != nil && st.Evicted == last.Evicted && st.Bytes <= last.Bytes {
			t.Fatalf("root %d missed into a free slot but bytes went %d -> %d", root, last.Bytes, st.Bytes)
		}
		last = st
	}
	if last.Evicted == 0 || last.VocabKeys == 0 {
		t.Fatalf("30 roots through 16 slots: %+v, want evictions and interned keys", last)
	}
	// Evicting every row for smaller ones (budget-1 rows hold one count)
	// must bring the gauge down.
	for root := 0; root < 30; root++ {
		doJSON(t, s, http.MethodPost, "/v1/features", fmt.Sprintf(`{"roots":[%d],"root_budget":1}`, root), nil)
	}
	if st := stats(); st.Bytes >= last.Bytes {
		t.Fatalf("evicting full rows for 1-count rows: bytes %d -> %d, want a fall", last.Bytes, st.Bytes)
	}
}

// TestVocabInternRacesExpansion runs cold misses that intern new keys
// beside warm reads that expand cached rows; under -race it checks that
// the append-only table publishes ids without a data race, and in any
// mode that warm bodies never change.
func TestVocabInternRacesExpansion(t *testing.T) {
	ex, err := core.NewExtractor(testGraph(t, 300), core.Options{MaxEdges: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ex, Config{MaxInFlight: 2})
	const warm = `{"roots":[0,1,2,3]}`
	want := normalizeElapsed(doJSON(t, s, http.MethodPost, "/v1/features", warm, nil).Body.String())
	before := s.Snapshot().vocab.size()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := normalizeElapsed(doJSON(t, s, http.MethodPost, "/v1/features", warm, nil).Body.String()); got != want {
					errs <- fmt.Errorf("warm body changed:\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	var cold sync.WaitGroup
	for w := 0; w < 2; w++ {
		cold.Add(1)
		go func() {
			defer cold.Done()
			for root := 4 + w; root < 300; root += 2 {
				if code := doJSON(t, s, http.MethodPost, "/v1/features", fmt.Sprintf(`{"roots":[%d]}`, root), nil).Code; code != http.StatusOK {
					errs <- fmt.Errorf("cold root %d: status %d", root, code)
					return
				}
			}
		}()
	}
	cold.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if after := s.Snapshot().vocab.size(); after <= before {
		t.Fatalf("cold misses interned nothing new (%d -> %d keys); the race is not exercised", before, after)
	}
}
