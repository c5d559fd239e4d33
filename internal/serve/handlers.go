package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
)

// maxRequestBody bounds the /v1/features request body; a root batch is
// small, so anything past this is a client error (or an attack).
const maxRequestBody = 1 << 20

// FeaturesRequest is the body of POST /v1/features.
type FeaturesRequest struct {
	// Roots are the node IDs to extract features for. Required.
	Roots []int64 `json:"roots"`
	// DeadlineMS bounds the whole request's extraction wall-clock time;
	// clamped to the server's MaxDeadline. 0 uses the server default.
	// The header X-Deadline-Ms is an equivalent alternative.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// RootBudget / RootDeadlineMS tighten (never exceed) the server's
	// per-root enumeration bounds for this request.
	RootBudget     int64 `json:"root_budget,omitempty"`
	RootDeadlineMS int64 `json:"root_deadline_ms,omitempty"`
}

// FeatureRow is one root's census in the response: counts keyed by the
// decoded encoding string, plus the degradation taxonomy.
type FeatureRow struct {
	Root int64 `json:"root"`
	// Flags renders the CensusFlag set ("ok", "budget-exceeded",
	// "deadline-exceeded|cancelled", ...). A degraded row is still a
	// valid prefix census — HTTP 200, flagged, never silently partial.
	Flags     string           `json:"flags"`
	Truncated bool             `json:"truncated,omitempty"`
	Subgraphs int64            `json:"subgraphs"`
	Counts    map[string]int64 `json:"counts"`
}

// FeaturesResponse is the body of a successful POST /v1/features.
type FeaturesResponse struct {
	Rows      []FeatureRow `json:"rows"`
	Degraded  bool         `json:"degraded"` // any row flagged
	ElapsedMS int64        `json:"elapsed_ms"`
	// Fingerprint identifies the serving generation that produced every
	// row of this response (one request never spans a hot reload).
	Fingerprint string `json:"fingerprint"`
	Generation  uint64 `json:"generation,omitempty"`
}

// ErrorDetail is the typed JSON error shape of every non-200 response.
type ErrorDetail struct {
	// Code is machine-readable: bad_request, shed, queue_timeout,
	// breaker_open, draining, panic, method_not_allowed.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header on retryable errors.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// MetaResponse is the body of GET /v1/meta.
type MetaResponse struct {
	Fingerprint string   `json:"fingerprint"`
	Generation  uint64   `json:"generation,omitempty"`
	Source      string   `json:"source,omitempty"`
	Nodes       int      `json:"nodes"`
	Edges       int      `json:"edges"`
	Labels      []string `json:"labels"`
	SlotNames   []string `json:"slot_names"`

	MaxEdges      int    `json:"max_edges"`
	MaxDegree     int    `json:"max_degree,omitempty"`
	MaskRootLabel bool   `json:"mask_root_label,omitempty"`
	KeyMode       string `json:"key_mode"`

	MaxRootsPerRequest int   `json:"max_roots_per_request"`
	DefaultDeadlineMS  int64 `json:"default_deadline_ms"`
	MaxDeadlineMS      int64 `json:"max_deadline_ms"`
	RootBudget         int64 `json:"root_budget,omitempty"`
	RootDeadlineMS     int64 `json:"root_deadline_ms,omitempty"`

	// Ingest is the streaming-ingest freshness watermark; absent when
	// the daemon runs without an ingest engine.
	Ingest *IngestStatus `json:"ingest,omitempty"`

	// Cache is the feature-row cache block (hit/miss/coalesce counters
	// and the serving epoch); absent when the cache is disabled.
	Cache *CacheStats `json:"cache,omitempty"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past this point mean the client went away; the
	// connection is already committed so there is no retry, but the
	// failure is counted rather than discarded — a climbing write_failed
	// in /debug/stats is how an operator sees clients hanging up
	// mid-response.
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.stats.writeFailed.Add(1)
	}
}

// respBufPool recycles response-assembly buffers across requests so the
// row expansion allocates no per-request scratch.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeFeaturesResponse assembles and writes a 200 /v1/features body
// from compact rows: each row is expanded against the snapshot's
// vocabulary, and the envelope is written around the rows in exactly
// the field order (and trailing newline) that
// json.NewEncoder(w).Encode(FeaturesResponse{...}) would produce, so a
// response assembled from cached rows is byte-identical to one
// marshalled from scratch. Fingerprints are always %016x hex, so the
// string needs no JSON escaping.
//
// The vocabulary table is loaded once, after every row was collected,
// so it covers every id they hold: a row is interned before it is put
// in the cache (a hit reads it after that put, through the shard lock)
// or before its flight's done channel closes (a follower reads it after
// that close). The buffer is grown up front from the rows' recorded
// JSON lengths, so a pooled buffer expands them without reallocating.
func (s *Server) writeFeaturesResponse(w http.ResponseWriter, snap *Snapshot, rows []rowResult, degraded bool, elapsedMS int64) {
	t := snap.vocab.table.Load()
	need := envelopeMax
	for i := range rows {
		need += rows[i].size + 1
	}
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(need)
	buf.WriteString(`{"rows":[`)
	for i := range rows {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(appendRow(buf.AvailableBuffer(), rows[i], t))
	}
	buf.WriteString(`],"degraded":`)
	buf.WriteString(strconv.FormatBool(degraded))
	buf.WriteString(`,"elapsed_ms":`)
	b := buf.AvailableBuffer()
	buf.Write(strconv.AppendInt(b, elapsedMS, 10))
	buf.WriteString(`,"fingerprint":"`)
	buf.WriteString(snap.Fingerprint)
	buf.WriteByte('"')
	if snap.Generation != 0 {
		buf.WriteString(`,"generation":`)
		b = buf.AvailableBuffer()
		buf.Write(strconv.AppendUint(b, snap.Generation, 10))
	}
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.stats.writeFailed.Add(1)
	}
	respBufPool.Put(buf)
}

// envelopeMax bounds a features response's bytes outside its rows:
// the fixed field names, two 20-digit integers and the fingerprint.
const envelopeMax = 160

func (s *Server) writeError(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	s.writeErrorExtra(w, status, code, message, retryAfter, nil)
}

// writeErrorExtra is writeError plus endpoint-specific machine-readable
// top-level fields (the fleet ingest watermark first among them).
func (s *Server) writeErrorExtra(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration, extra map[string]any) {
	// Shed (429) and unavailable (503) responses always carry a backoff
	// hint so client retry loops can honour the server's view of load
	// instead of guessing; the configured default applies when the
	// caller had no better estimate (e.g. breaker cooldown).
	if retryAfter <= 0 && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) {
		retryAfter = s.cfg.RetryAfter
	}
	if err := WriteJSONError(w, status, code, message, retryAfter, extra); err != nil {
		s.stats.writeFailed.Add(1)
	}
}

// recoverPanics is the outermost middleware: a panicking handler is
// recovered into a PanicRecord-style report (value + stack, logged and
// counted) and a typed 500, and the daemon keeps serving. Census-worker
// panics never reach here — the extractor pool isolates those per root —
// so this guards the serving layer itself.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panicked.Add(1)
				s.logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				// Best effort: if the handler already wrote, the
				// connection is poisoned and http closes it.
				s.writeError(w, http.StatusInternalServerError, "panic",
					fmt.Sprintf("internal error serving %s", r.URL.Path), 0)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleFeatures serves POST /v1/features. The warm path is built for
// sub-100µs responses: every requested row is looked up in the
// generation-keyed feature-row cache first, and a request satisfied
// entirely from cache skips the extraction gates (admission, breaker) —
// it performs no extraction, so there is nothing to admit or protect;
// cached rows keep serving even while the breaker is open or the
// extraction queue is shedding. Only rows that miss go through the full
// gate chain — bounded admission, circuit breaker, extraction — with
// singleflight coalescing so concurrent requests for the same
// (epoch, root, limits) compute each census once and share the
// compact row.
//
// The serving snapshot is loaded exactly once, up front: a hot reload
// mid-request swaps the pointer for later arrivals while this request
// finishes — validation, extraction, and encoding included — against
// the generation it was admitted under. Cached rows are keyed by that
// snapshot's epoch, so a row extracted under the old generation can
// never be served under the new one.
func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	snap := s.snap.Load()
	ex := snap.Extractor
	if s.draining.Load() {
		s.stats.drained.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", s.cfg.RetryAfter)
		return
	}

	var req FeaturesRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error(), 0)
		return
	}
	if len(req.Roots) == 0 {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request", "roots must not be empty", 0)
		return
	}
	if len(req.Roots) > s.cfg.MaxRootsPerRequest {
		s.stats.badReq.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("%d roots exceeds the per-request limit of %d", len(req.Roots), s.cfg.MaxRootsPerRequest), 0)
		return
	}
	n := ex.Graph().NumNodes()
	roots := make([]graph.NodeID, len(req.Roots))
	for i, root := range req.Roots {
		if root < 0 || root >= int64(n) {
			s.stats.badReq.Add(1)
			s.writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("root %d outside the graph's %d nodes", root, n), 0)
			return
		}
		roots[i] = graph.NodeID(root)
	}
	deadlineMS := req.DeadlineMS
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			s.stats.badReq.Add(1)
			s.writeError(w, http.StatusBadRequest, "bad_request", "X-Deadline-Ms must be a positive integer", 0)
			return
		}
		deadlineMS = v
	}

	lim := s.rootLimits(req.RootBudget, req.RootDeadlineMS)
	mkKey := func(root graph.NodeID) rowKey {
		return rowKey{root: root, budget: lim.Budget, deadline: lim.Deadline}
	}

	start := time.Now()
	rows := make([]rowResult, len(roots))
	var missing []int // indices into roots with no cached row
	if s.cache != nil {
		for i, root := range roots {
			if res, ok := s.cache.get(mkKey(root), snap.epoch); ok {
				rows[i] = res
			} else {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			// Warm fast path: every row came from cache, no extraction
			// happens, so the admission gate and breaker are bypassed and
			// the response is expanded from the cached compact rows.
			s.finishFeatures(w, snap, rows, start)
			return
		}
	} else {
		missing = make([]int, len(roots))
		for i := range missing {
			missing[i] = i
		}
	}

	// Deadline propagation: the request context carries both the
	// client's transport-level cancellation and the resolved extraction
	// deadline into the census workers. Created only on the miss path —
	// the warm path above has nothing to bound.
	ctx, cancel := context.WithTimeout(r.Context(), s.requestDeadline(deadlineMS))
	defer cancel()

	// Gate 1 — bounded admission. Shed rather than queue unboundedly.
	release, err := s.adm.acquire(ctx, func() { s.stats.queued.Add(1) })
	if err != nil {
		switch {
		case err == ErrShed:
			s.stats.shed.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "shed", "admission queue full", s.cfg.RetryAfter)
		default: // ErrQueueTimeout
			s.stats.shed.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, "queue_timeout",
				"deadline expired waiting for an extraction slot", s.cfg.RetryAfter)
		}
		return
	}
	defer release()

	// Gate 2 — circuit breaker around extraction.
	done, ok := s.brk.Acquire()
	if !ok {
		s.stats.tripped.Add(1)
		retry := s.brk.RetryAfter()
		if retry <= 0 {
			retry = s.cfg.RetryAfter
		}
		s.writeError(w, http.StatusServiceUnavailable, "breaker_open",
			"circuit breaker open: extraction is shedding sustained failures", retry)
		return
	}

	s.stats.accepted.Add(1)

	// One extraction per distinct missing root. With the cache enabled,
	// each distinct root either re-checks as a hit (filled by a
	// concurrent request since the first pass), joins that request's
	// in-flight extraction as a follower, or registers this request as
	// the flight's leader. Flights are registered only after admission,
	// so every flight's leader holds an extraction slot and will fulfil
	// it without waiting on further resources — the fulfil-before-wait
	// ordering below is what makes cross-request coalescing deadlock-free.
	type missRoot struct {
		root     graph.NodeID
		idxs     []int // positions in rows sharing this root
		f        *flight
		leader   bool
		res      rowResult
		resolved bool
	}
	var misses []missRoot
	if s.cache != nil {
		byRoot := make(map[graph.NodeID]int, len(missing))
		for _, idx := range missing {
			root := roots[idx]
			if mi, dup := byRoot[root]; dup {
				misses[mi].idxs = append(misses[mi].idxs, idx)
				continue
			}
			byRoot[root] = len(misses)
			m := missRoot{root: root, idxs: []int{idx}}
			if res, hit, f, leader := s.cache.join(mkKey(root), snap.epoch); hit {
				m.res, m.resolved = res, true
			} else {
				m.f, m.leader = f, leader
			}
			misses = append(misses, m)
		}
		// A panic between here and fulfilment (recovered into a 500 by
		// the middleware) must not strand followers: abandon any flight
		// this request leads and never fulfilled.
		defer func() {
			for i := range misses {
				if m := &misses[i]; m.leader && !m.resolved {
					s.cache.abandon(mkKey(m.root), m.f)
				}
			}
		}()
	} else {
		misses = make([]missRoot, len(missing))
		for i, idx := range missing {
			misses[i] = missRoot{root: roots[idx], idxs: []int{idx}, leader: true}
		}
	}

	var leadRoots []graph.NodeID
	for i := range misses {
		if m := &misses[i]; m.leader {
			leadRoots = append(leadRoots, m.root)
		}
	}
	var (
		censuses []*core.Census
		ctxErr   error
	)
	if len(leadRoots) > 0 {
		censuses, ctxErr = ex.CensusAllWithLimits(ctx, leadRoots, s.cfg.Workers, lim)
	}
	// The breaker samples this request's own extraction; rows obtained
	// from cache or another request's flight carry no overload signal.
	done(breakerFailure(censuses, ctxErr))

	// Fulfil every led flight before waiting on any followed one.
	li := 0
	for i := range misses {
		m := &misses[i]
		if !m.leader {
			continue
		}
		res, cacheable := encodeRow(snap.vocab, ex.EncodingString, m.root, censuses[li])
		li++
		m.res, m.resolved = res, true
		if s.cache != nil {
			s.cache.fulfill(mkKey(m.root), m.f, res, cacheable)
		}
	}

	// Follower rows: wait for the leading request's row, bounded by
	// this request's own deadline. A flight that ends without a
	// shareable row (the leader's extraction was deadline-truncated or
	// cancelled) falls back to a local extraction.
	var fallback []*missRoot
	for i := range misses {
		m := &misses[i]
		if m.resolved || m.leader {
			continue
		}
		select {
		case <-m.f.done:
			if m.f.shared {
				m.res, m.resolved = m.f.res, true
				s.cache.coalesced.Add(1)
				continue
			}
		case <-ctx.Done():
		}
		fallback = append(fallback, m)
	}
	if len(fallback) > 0 {
		fbRoots := make([]graph.NodeID, len(fallback))
		for i, m := range fallback {
			fbRoots[i] = m.root
		}
		// Past the breaker's done call by construction; degraded rows
		// from an expired ctx surface in the response flags instead.
		fbCensuses, _ := ex.CensusAllWithLimits(ctx, fbRoots, s.cfg.Workers, lim)
		for i, m := range fallback {
			res, cacheable := encodeRow(snap.vocab, ex.EncodingString, m.root, fbCensuses[i])
			if s.cache != nil && cacheable {
				s.cache.put(mkKey(m.root), snap.epoch, res)
			}
			m.res, m.resolved = res, true
		}
	}

	for i := range misses {
		m := &misses[i]
		for _, idx := range m.idxs {
			rows[idx] = m.res
		}
	}
	s.finishFeatures(w, snap, rows, start)
}

// finishFeatures records the completion counters and writes the 200
// response assembled from compact rows.
func (s *Server) finishFeatures(w http.ResponseWriter, snap *Snapshot, rows []rowResult, start time.Time) {
	degraded := false
	for i := range rows {
		if rows[i].degraded {
			degraded = true
			break
		}
	}
	elapsed := time.Since(start)
	s.stats.latency.Observe(elapsed)
	s.stats.completed.Add(1)
	if degraded {
		s.stats.degraded.Add(1)
	}
	s.writeFeaturesResponse(w, snap, rows, degraded, elapsed.Milliseconds())
}

// handleMeta serves GET /v1/meta: the serving generation, its
// graph/options fingerprint, and the limits a well-behaved client
// needs. Reads one consistent snapshot, so a concurrent reload can
// never mix two generations in one response.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET", 0)
		return
	}
	snap := s.snap.Load()
	ex := snap.Extractor
	g := ex.Graph()
	opts := ex.Options()
	meta := MetaResponse{
		Fingerprint:        snap.Fingerprint,
		Generation:         snap.Generation,
		Source:             snap.Source,
		Nodes:              g.NumNodes(),
		Edges:              g.NumEdges(),
		Labels:             g.Alphabet().Names(),
		MaxEdges:           opts.MaxEdges,
		MaxDegree:          opts.MaxDegree,
		MaskRootLabel:      opts.MaskRootLabel,
		KeyMode:            opts.KeyMode.String(),
		MaxRootsPerRequest: s.cfg.MaxRootsPerRequest,
		DefaultDeadlineMS:  s.cfg.DefaultDeadline.Milliseconds(),
		MaxDeadlineMS:      s.cfg.MaxDeadline.Milliseconds(),
		RootBudget:         s.cfg.RootBudget,
		RootDeadlineMS:     s.cfg.RootDeadline.Milliseconds(),
		Ingest:             s.ingestStatus(),
		Cache:              s.cacheStats(),
	}
	for l := 0; l < ex.LabelSlots(); l++ {
		meta.SlotNames = append(meta.SlotNames, ex.SlotName(l))
	}
	s.writeJSON(w, http.StatusOK, meta)
}

// ReloadResponse is the body of a successful POST /v1/admin/reload.
type ReloadResponse struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	ElapsedMS   int64  `json:"elapsed_ms"`
	// Verified is true for verify-only calls (?verify=1): the reported
	// generation passed verification but was NOT swapped in.
	Verified bool `json:"verified,omitempty"`
}

// handleReload serves POST /v1/admin/reload: verify the newest artifact
// generation off the request path, then RCU-swap it in. With ?verify=1
// the swap is skipped — the next generation is built and verified, the
// current one keeps serving — which is the first phase of the routing
// tier's fleet-wide reload protocol. Failure keeps the current
// generation serving and reports a typed error; a reload already in
// flight is a 409 so automation never stacks reloads.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", s.cfg.RetryAfter)
		return
	}
	verifyOnly := r.URL.Query().Get("verify") == "1"
	start := time.Now()
	var (
		snap *Snapshot
		err  error
	)
	if verifyOnly {
		snap, err = s.VerifyReload(r.Context())
	} else {
		snap, err = s.Reload(r.Context())
	}
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, ReloadResponse{
			Generation:  snap.Generation,
			Fingerprint: snap.Fingerprint,
			ElapsedMS:   time.Since(start).Milliseconds(),
			Verified:    verifyOnly,
		})
	case errors.Is(err, ErrNoReloader):
		s.writeError(w, http.StatusNotImplemented, "reload_unsupported",
			"daemon was started without a reloadable artifact source", 0)
	case errors.Is(err, ErrReloadInProgress):
		s.writeError(w, http.StatusConflict, "reload_in_progress", "a reload is already running", s.cfg.RetryAfter)
	default:
		// The old generation is still serving; the reload just failed to
		// produce a better one.
		s.writeError(w, http.StatusInternalServerError, "reload_failed", err.Error(), 0)
	}
}

// handleHealthz reports liveness: the process is up and serving HTTP,
// even while draining or with the breaker open.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: 503 once draining so load balancers
// stop routing here, and 503 with reason ingest_failed once the ingest
// engine latches its post-durability failure state — such a shard can
// no longer accept writes until a restart replays the WAL, so it must
// drop out of router rotation automatically rather than only flagging
// the failure in /debug/stats. The breaker state, serving generation,
// and last reload outcome ride along for observability (an open breaker
// or a failed reload still serves the current generation and will
// recover, so neither fails readiness by itself).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	body := map[string]any{
		"status":      "ready",
		"breaker":     s.brk.State().String(),
		"generation":  snap.Generation,
		"fingerprint": snap.Fingerprint,
	}
	if last := s.lastReload.Load(); last != nil {
		body["last_reload"] = last
	}
	ing := s.ingestStatus()
	if ing != nil {
		body["ingest"] = ing
	}
	switch {
	case s.draining.Load():
		body["status"] = "draining"
		body["reason"] = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
	case ing != nil && ing.Failed:
		body["status"] = "unready"
		body["reason"] = "ingest_failed"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		s.writeJSON(w, http.StatusOK, body)
	}
}

// handleStats serves the counter snapshot on GET /debug/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	serving := s.snap.Load()
	snap := s.stats.snapshot()
	snap.InFlight = int64(s.adm.inFlight())
	snap.QueueDepth = int64(s.adm.queued())
	snap.BreakerState = s.brk.State().String()
	snap.Draining = s.draining.Load()
	snap.Generation = serving.Generation
	snap.Fingerprint = serving.Fingerprint
	snap.LastReload = s.lastReload.Load()
	snap.Ingest = s.ingestStatus()
	snap.Cache = s.cacheStats()
	s.writeJSON(w, http.StatusOK, snap)
}
