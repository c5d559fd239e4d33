package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind says which layer boundary a span was recorded at.
type spanKind uint8

const (
	kindRead        spanKind = iota + 1 // client read through the router (a root span)
	kindWrite                           // client write batch through the router (a root span)
	kindShardCall                       // router -> replica POST /v1/features
	kindFanout                          // router -> replica POST /v1/ingest (sequenced sub-batch)
	kindServeRead                       // replica /v1/features handler
	kindServeIngest                     // replica /v1/ingest handler
	kindStep                            // a boot step or an extract call, named
)

var kindNames = map[spanKind]string{
	kindRead: "read", kindWrite: "write", kindShardCall: "shard_call", kindFanout: "fanout",
	kindServeRead: "serve_features", kindServeIngest: "serve_ingest", kindStep: "step",
}

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch. Spans of one client request
// share a root: shard calls carry the root span's ID as Parent, replica
// handler spans carry their shard call's ID. Write fan-out runs on the
// router's background senders, outside the client request's context,
// so fan-out spans are linked to their client write by Batch (the
// client batch ID inside the fleet batch ID) instead.
type span struct {
	ID, Parent uint64
	Kind       spanKind
	Name       string
	Start, End int64
	Shard      int
	Replica    int
	OK         bool
	Bytes      int64  // response body bytes (shard calls)
	Rows       int    // roots requested (shard calls)
	Batch      string // client batch ID (writes and fan-out)
	Dirty      int    // dirty roots a follower reported (fan-out)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the length of a run; write dumps
// them when the run ends. A nil *tracer records nothing, which is how
// the untraced run measures end-to-end metrics with tracing off.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// step times fn as a named span (boot steps, extract calls). With a nil
// tracer it only runs fn.
func (t *tracer) step(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: t.newID(), Kind: kindStep, Name: name, Start: t.now()}
	err := fn()
	s.End, s.OK = t.now(), err == nil
	t.add(s)
	return err
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		rec := map[string]any{
			"id": s.ID, "parent": s.Parent, "kind": kindNames[s.Kind],
			"start_ns": s.Start, "end_ns": s.End, "ok": s.OK,
		}
		if s.Name != "" {
			rec["name"] = s.Name
		}
		if s.Kind == kindShardCall || s.Kind == kindFanout || s.Kind == kindServeRead || s.Kind == kindServeIngest {
			rec["shard"], rec["replica"] = s.Shard, s.Replica
		}
		if s.Bytes > 0 {
			rec["bytes"], rec["rows"] = s.Bytes, s.Rows
		}
		if s.Batch != "" {
			rec["batch"] = s.Batch
		}
		if s.Kind == kindFanout {
			rec["dirty_roots"] = s.Dirty
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the root span ID in a client request's context; the
// router passes that context down to its shard calls.
type spanKey struct{}

const (
	// parentHeader carries a shard call's span ID to the replica's
	// handler middleware.
	parentHeader = "X-Perfbench-Span"
	// batchHeader carries the client batch ID of a write to the router
	// middleware; the router ignores it.
	batchHeader = "X-Perfbench-Batch"
)

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// routerMiddleware records one root span per client read or write.
func (t *tracer) routerMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind spanKind
		switch r.URL.Path {
		case "/v1/features":
			kind = kindRead
		case "/v1/ingest":
			kind = kindWrite
		default:
			next.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Kind: kind, Start: t.now(), Batch: r.Header.Get(batchHeader)}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
		s.End, s.OK = t.now(), sw.status == http.StatusOK
		t.add(s)
	})
}

// replicaMiddleware records one span per replica /v1/features or
// /v1/ingest request, parented to the shard call that sent it.
func (t *tracer) replicaMiddleware(shard, replica int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind spanKind
		switch r.URL.Path {
		case "/v1/features":
			kind = kindServeRead
		case "/v1/ingest":
			kind = kindServeIngest
		default:
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		s := span{ID: t.newID(), Parent: parent, Kind: kind, Start: t.now(), Shard: shard, Replica: replica}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.End, s.OK = t.now(), sw.status == http.StatusOK
		t.add(s)
	})
}

// replicaID locates a replica in the fleet.
type replicaID struct{ shard, replica int }

// benchTransport is the router's outbound http.RoundTripper. Untraced
// and without a corruption hook it passes every call straight to base.
// Traced, it records one span per router -> replica call, from just
// before the request is sent to the last byte of the response, which it
// reads in full before handing the router an equivalent body; so the
// span holds the replica's work and the transport, and the router's
// decoding of the response counts as router self time. It also counts
// the response bytes and tells the replica which span called it.
// corrupt, used only by the self-test, rewrites replica /v1/features
// response bodies to prove the correctness gates catch a wrong count.
type benchTransport struct {
	base     http.RoundTripper
	tr       *tracer
	replicas map[string]replicaID // keyed by host:port
	corrupt  atomic.Pointer[func([]byte) []byte]
}

func (b *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	corrupt := b.corrupt.Load()
	var kind spanKind
	switch req.URL.Path {
	case "/v1/features":
		kind = kindShardCall
	case "/v1/ingest":
		kind = kindFanout
	}
	if kind == 0 || (b.tr == nil && corrupt == nil) {
		return b.base.RoundTrip(req)
	}
	t := b.tr
	var s span
	if t != nil {
		rid := b.replicas[req.URL.Host]
		s = span{ID: t.newID(), Kind: kind, Shard: rid.shard, Replica: rid.replica}
		s.Parent, _ = req.Context().Value(spanKey{}).(uint64)
		if body := requestBody(req); body != nil {
			var wire struct {
				Roots   []int64 `json:"roots"`
				BatchID string  `json:"batch_id"`
			}
			_ = json.Unmarshal(body, &wire) // a body we cannot read only loses span attributes
			s.Rows = len(wire.Roots)
			if i := strings.IndexByte(wire.BatchID, '.'); i >= 0 {
				s.Batch = wire.BatchID[i+1:] // "f<seq>.<client ID>"
			}
		}
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatUint(s.ID, 10))
		s.Start = t.now()
	}
	resp, err := b.base.RoundTrip(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if t != nil {
		s.End = t.now()
		s.OK = err == nil && resp.StatusCode == http.StatusOK
		if kind == kindShardCall {
			s.Bytes = int64(len(raw))
		}
		var ack struct {
			DirtyRoots int `json:"dirty_roots"`
		}
		if kind == kindFanout && s.OK && json.Unmarshal(raw, &ack) == nil {
			s.Dirty = ack.DirtyRoots
		}
		t.add(s)
	}
	if err != nil {
		return nil, err
	}
	if corrupt != nil && kind == kindShardCall && resp.StatusCode == http.StatusOK {
		raw = (*corrupt)(raw)
		resp.ContentLength = int64(len(raw))
		resp.Header.Del("Content-Length")
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

// requestBody returns a copy of req's body without consuming it, or nil.
func requestBody(req *http.Request) []byte {
	if req.GetBody == nil {
		return nil
	}
	rc, err := req.GetBody()
	if err != nil {
		return nil
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return nil
	}
	return raw
}

// coveredBy returns how much of [start,end) the child intervals cover,
// counting overlapping children once.
func coveredBy(start, end int64, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, start), min(c.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanStats are the per-layer numbers derived from one run's spans.
type spanStats struct {
	readSelf, shardCall, serveRead []time.Duration
	ingestSelf, serveIngest        []time.Duration
	hedgeLegs, hedgeUseful         int
	callBytes, callRows            int64
	dirty                          []int
	dirtyFrac                      []float64
}

// analyze derives per-layer numbers from the spans that started in
// [from, to), the timed phase. shardNodes gives each shard's node count,
// for the dirty fraction.
func analyze(spans []span, from, to int64, shardNodes []int) spanStats {
	var st spanStats
	calls := make(map[uint64][]span)  // root span ID -> shard calls
	fanout := make(map[string][]span) // client batch ID -> fan-out calls
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		switch s.Kind {
		case kindShardCall:
			calls[s.Parent] = append(calls[s.Parent], s)
			if s.OK {
				st.shardCall = append(st.shardCall, s.dur())
				st.callBytes += s.Bytes
				st.callRows += int64(s.Rows)
			}
		case kindFanout:
			fanout[s.Batch] = append(fanout[s.Batch], s)
			if s.OK {
				st.dirty = append(st.dirty, s.Dirty)
				if s.Shard < len(shardNodes) && shardNodes[s.Shard] > 0 {
					st.dirtyFrac = append(st.dirtyFrac, float64(s.Dirty)/float64(shardNodes[s.Shard]))
				}
			}
		case kindServeRead:
			if s.OK {
				st.serveRead = append(st.serveRead, s.dur())
			}
		case kindServeIngest:
			if s.OK {
				st.serveIngest = append(st.serveIngest, s.dur())
			}
		}
	}
	for _, s := range spans {
		if s.Start < from || s.Start >= to || !s.OK {
			continue
		}
		switch s.Kind {
		case kindRead:
			children := calls[s.ID]
			st.readSelf = append(st.readSelf, s.dur()-coveredBy(s.Start, s.End, children))
			st.countHedges(children)
		case kindWrite:
			st.ingestSelf = append(st.ingestSelf, s.dur()-coveredBy(s.Start, s.End, fanout[s.Batch]))
		}
	}
	return st
}

// countHedges splits one client read's shard calls by shard: the first
// leg to a shard is the primary, later legs are hedges (failovers and
// retries add legs too, and are counted by the router's own counters).
// A hedge is useful when it succeeded and the primary did not, or
// finished later.
func (st *spanStats) countHedges(calls []span) {
	byShard := make(map[int][]span, 2)
	for _, c := range calls {
		byShard[c.Shard] = append(byShard[c.Shard], c)
	}
	for _, legs := range byShard {
		if len(legs) < 2 {
			continue
		}
		sort.Slice(legs, func(i, j int) bool { return legs[i].Start < legs[j].Start })
		primary := legs[0]
		for _, h := range legs[1:] {
			st.hedgeLegs++
			if h.OK && (!primary.OK || h.End < primary.End) {
				st.hedgeUseful++
			}
		}
	}
}
