package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"hsgf/internal/graph"
	"hsgf/internal/ingest"
	"hsgf/internal/serve"
	"hsgf/internal/store"
)

// Fleet ingest: the router is the fleet's single sequencer. Every
// client batch is checked against the router's graph.Overlay over the
// ingest graph, assigned a monotone fleet sequence by a CRC-framed
// sequencer WAL (durability point), and sent unchanged, as one body, to
// every replica of every shard: each shard serves the whole graph, so
// each applies every batch. Replicas apply strictly in fleet order —
// the body carries (fleet_seq, prev_fleet_seq = fleet_seq-1) and a
// replica at a different watermark refuses with 409 sequence_gap,
// which the sender repairs by replaying the missed suffix of the fleet
// chain from the in-memory history backed by the sequencer log. The
// body also carries the node count of the graph it applies to, so a
// replica whose graph differs (a store cut into halo shards by an older
// partitioner) refuses it with 400 instead of mis-applying it.
//
// The client ack contract: 200 only after every replica of every shard
// confirmed the batch; otherwise a machine-readable 503
// fleet_partial_apply carrying the fleet watermark, while senders keep
// retrying in the background until stragglers converge. Duplicate
// client batch IDs ack idempotently at the router, and the composite
// fleet batch ID makes the fan-out idempotent at every shard.

// fanItem is one sequenced fleet batch: the fully marshalled follower
// request, shared by every replica sender and retained in the fleet
// chain for gap replay.
type fanItem struct {
	seq  uint64
	body []byte
}

// ackState tracks one sequenced batch's outstanding replica confirms
// and the fleet node count once it applied.
type ackState struct {
	remaining int
	nodes     int64
	done      chan struct{}
}

// fleetError is a typed submit failure for the handler to translate
// into the shared error envelope.
type fleetError struct {
	status    int
	code      string
	msg       string
	watermark uint64
}

func (e *fleetError) Error() string { return e.msg }

type fleetIngest struct {
	s *Server
	// overlay is the fleet graph after the newest sequenced batch: the
	// ingest graph plus every batch in the sequencer log. Guarded by mu.
	overlay *graph.Overlay
	log     *store.WAL // the sequencer log, records numbered 1..N by fleet seq; guarded by mu

	ackTimeout time.Duration
	replicas   int // replicas across all shards: the confirms each batch needs

	mu sync.Mutex
	// failed latches when fleet state can no longer be trusted to match
	// the sequencer log (sequencer IO failure after partial write, a
	// post-check apply failure, or a replica rejecting a sequenced batch
	// as malformed). Every later submit is refused; a restart rebuilds
	// from the log.
	failed     bool
	failReason string
	// history is the fleet chain in ascending seq order — the gap-repair
	// replay source, rebuilt from the sequencer log on boot. Items at or
	// below every replica's confirmed watermark can never be replayed
	// again, so confirmThrough trims them as confirms land; only the
	// unconfirmed suffix is retained in memory.
	history []*fanItem
	// historyBytes tracks the retained body bytes (a /debug/stats gauge).
	historyBytes int64
	pending      map[uint64]*ackState
	complete     map[uint64]int64 // fully confirmed but above the watermark: seq -> node count
	// watermark is the highest seq with every seq at or below it fully
	// confirmed by all replicas.
	watermark uint64
	// acked maps every client batch ID ever sequenced to its fleet seq
	// — the router-level idempotency index. It is deliberately
	// unbounded: boot rebuilds it from the sequencer log, which keeps
	// every record on disk regardless, and eviction would re-open the
	// double-apply hole — a retry of an evicted ID would be
	// re-sequenced under a new composite fleet batch ID that no shard's
	// replay index can match. Compacting the log (DESIGN.md §14) is the
	// operator lever that bounds both together.
	acked map[string]uint64

	senders []*replicaSender
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// newFleetIngest builds the fleet ingest state: an overlay over the
// ingest graph g, checked against the manifest m's node count, the
// sequencer log, and one ordered sender per (shard, replica). Every
// record already in the log is replayed into the overlay (regenerating
// the exact bodies of the previous run) and the chain's tail is
// enqueued to every replica: an up-to-date replica replay-acks the tail
// in one round trip — implicitly confirming the whole chain — while a
// replica that crashed mid-stream answers 409 with its watermark and
// gets the missed suffix replayed. That makes boot the same code path
// as steady-state gap repair, and it is what repairs a router killed
// between sequencing and fan-out.
func newFleetIngest(s *Server, m *Manifest, g *graph.Graph, path string) (*fleetIngest, error) {
	if err := g.RequireUntyped("router: ingest graph"); err != nil {
		return nil, err
	}
	if g.NumNodes() != m.NumNodes {
		return nil, fmt.Errorf("router: ingest graph has %d nodes, the manifest %d (wrong -ingest-graph?)", g.NumNodes(), m.NumNodes)
	}
	log, recs, err := store.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	f := &fleetIngest{
		s:          s,
		overlay:    graph.NewOverlay(g),
		log:        log,
		ackTimeout: s.cfg.IngestAckTimeout,
		pending:    make(map[uint64]*ackState),
		complete:   make(map[uint64]int64),
		acked:      make(map[string]uint64),
		stopCh:     make(chan struct{}),
	}
	for _, sh := range s.shards {
		f.replicas += len(sh.replicas)
	}

	for i, rec := range recs {
		// The WAL drops a torn tail (never acked); a gap in what remains
		// means acked sequence assignments were lost.
		if want := uint64(i + 1); rec.Seq != want {
			log.Close()
			return nil, fmt.Errorf("router: sequencer log %s: record %d carries seq %d, want %d: %w", path, i, rec.Seq, want, store.ErrCorrupt)
		}
		clientID, muts, err := graph.DecodeMutations(rec.Payload)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("router: sequencer record %d: %w", rec.Seq, err)
		}
		body, err := f.fanBody(rec.Seq, clientID, muts)
		if err == nil {
			err = f.commit(rec.Seq, clientID, muts, body)
		}
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("router: replaying sequencer record %d: %w", rec.Seq, err)
		}
	}

	for _, sh := range s.shards {
		for _, rep := range sh.replicas {
			rs := &replicaSender{f: f, sh: sh, rep: rep}
			rs.cond = sync.NewCond(&rs.mu)
			// Catch-up entry point: the tail of the chain. Its ack
			// confirms the whole chain; a gap answer pulls in the missed
			// middle.
			if len(f.history) > 0 {
				rs.queue = append(rs.queue, f.history[len(f.history)-1])
			}
			f.senders = append(f.senders, rs)
		}
	}
	for _, rs := range f.senders {
		f.wg.Add(1)
		go rs.run()
	}
	return f, nil
}

// stop halts the senders and closes the sequencer log; idempotent.
func (f *fleetIngest) stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	close(f.stopCh)
	for _, rs := range f.senders {
		rs.mu.Lock()
		rs.cond.Broadcast()
		rs.mu.Unlock()
	}
	f.mu.Unlock()
	f.wg.Wait()
	f.mu.Lock()
	_ = f.log.Close()
	f.mu.Unlock()
}

// fanBody marshals the follower request for batch seq, which applies
// to the overlay's current graph. The body is deterministic in the
// overlay state, so a boot-time replay regenerates byte-identical
// bodies to the run that crashed. Caller holds f.mu or is inside
// newFleetIngest before the state is shared.
func (f *fleetIngest) fanBody(seq uint64, clientID string, muts []graph.Mutation) ([]byte, error) {
	wire := make([]serve.IngestMutation, len(muts))
	for i, m := range muts {
		wire[i] = serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label, Name: m.Name}
	}
	nodes := int64(f.overlay.NumNodes())
	return json.Marshal(serve.IngestRequest{
		BatchID:      ingest.FleetBatchID(seq, clientID),
		FleetSeq:     seq,
		PrevFleetSeq: seq - 1,
		FleetNodes:   &nodes,
		Mutations:    wire,
	})
}

// commit applies a durable batch to the overlay and installs its fleet
// bookkeeping: the chain item, the pending ack state and the client
// idempotency index. The batch passed Overlay.Check before it was
// sequenced, so an apply error means the log and the overlay disagree.
// Caller holds f.mu (or is inside newFleetIngest).
func (f *fleetIngest) commit(seq uint64, clientID string, muts []graph.Mutation, body []byte) error {
	for i, m := range muts {
		if err := f.overlay.Apply(m); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	f.history = append(f.history, &fanItem{seq: seq, body: body})
	f.historyBytes += int64(len(body))
	f.acked[clientID] = seq
	f.pending[seq] = &ackState{remaining: f.replicas, nodes: int64(f.overlay.NumNodes()), done: make(chan struct{})}
	return nil
}

// completeLocked marks seq fully confirmed and advances the fleet
// watermark over any now-contiguous prefix, with it the fleet node
// count that /v1/features validates roots against. The count moves
// only here — not at sequencing — so the router never admits a root
// and routes it to a replica that has not yet applied the batch that
// created it. Caller holds f.mu.
func (f *fleetIngest) completeLocked(seq uint64, st *ackState) {
	delete(f.pending, seq)
	f.complete[seq] = st.nodes
	close(st.done)
	for {
		nodes, ok := f.complete[f.watermark+1]
		if !ok {
			break
		}
		delete(f.complete, f.watermark+1)
		f.watermark++
		f.s.numNodes.Store(nodes)
	}
	f.s.stats.fleetWatermark.Store(f.watermark)
}

// latchFailed poisons fleet ingest; only a router restart (which
// rebuilds from the sequencer log) clears it.
func (f *fleetIngest) latchFailed(reason string) {
	f.mu.Lock()
	if !f.failed {
		f.failed = true
		f.failReason = reason
		f.s.logf("router: fleet ingest FAILED, restart required: %s", reason)
	}
	f.mu.Unlock()
}

// chainBetween returns the history items with seq in (after, upTo) —
// the gap-replay window between a replica's watermark and the item it
// refused. Caller holds f.mu.
func (f *fleetIngest) chainBetween(after, upTo uint64) []*fanItem {
	i := sort.Search(len(f.history), func(i int) bool { return f.history[i].seq > after })
	var out []*fanItem
	for ; i < len(f.history) && f.history[i].seq < upTo; i++ {
		out = append(out, f.history[i])
	}
	return out
}

// submit sequences and fans out one client batch, blocking until the
// fleet confirms it or ackTimeout passes. The *fleetError return is a
// typed protocol outcome; a 503 fleet_partial_apply leaves the senders
// repairing in the background so the batch still converges.
func (f *fleetIngest) submit(ctx context.Context, clientID string, muts []graph.Mutation) (seq uint64, replayed bool, shards int, wm uint64, ferr *fleetError) {
	f.mu.Lock()
	if f.failed {
		reason := f.failReason
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusInternalServerError, code: "fleet_failed",
			msg: "fleet ingest is latched failed and requires a router restart: " + reason}
	}
	if prior, dup := f.acked[clientID]; dup {
		// Idempotent client retry: never re-sequence. Wait out the
		// original fan-out if it is still pending.
		st := f.pending[prior]
		f.mu.Unlock()
		f.s.stats.ingestReplayed.Add(1)
		return f.awaitAck(ctx, prior, true, 0, st)
	}
	if len(muts) > ingest.FleetMaxBatchMutations {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "batch_too_large",
			msg: fmt.Sprintf("batch carries %d mutations, over the followers' cap %d; split it", len(muts), ingest.FleetMaxBatchMutations)}
	}
	if err := f.overlay.Check(muts); err != nil {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "bad_mutation", msg: err.Error()}
	}
	payload, err := graph.EncodeMutations(clientID, muts)
	if err != nil {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "bad_mutation", msg: err.Error()}
	}
	// The body is built and size-checked BEFORE the sequencer append: a
	// follower refusing a sequenced batch latches fleet ingest failed,
	// and boot replay regenerates the identical body, so an oversized
	// batch must stay a plain client error. f.mu serialises every
	// Append, so the sequence the body names is the one the log takes.
	seq = f.log.LastSeq() + 1
	body, err := f.fanBody(seq, clientID, muts)
	if err != nil {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusInternalServerError, code: "fleet_failed",
			msg: "batch failed to encode; not sequenced, safe to retry: " + err.Error()}
	}
	if len(body) > serve.FleetMaxRequestBody {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "batch_too_large",
			msg: fmt.Sprintf("batch re-encodes to a %d-byte follower body, over the followers' cap %d; split it", len(body), serve.FleetMaxRequestBody)}
	}
	if err := f.log.Append(seq, payload); err != nil {
		// The sequencer could not make the assignment durable; the WAL
		// layer has rolled back or poisoned itself, so nothing was
		// acked and nothing may proceed.
		f.failed = true
		f.failReason = "sequencer append: " + err.Error()
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusInternalServerError, code: "fleet_failed",
			msg: "sequencer write failed; batch not acked, retry against a restarted router: " + err.Error()}
	}
	if hook := f.s.cfg.SequenceHook; hook != nil {
		// Fault-injection seam: the smoke suite kills the router here,
		// in the window where the sequence is durable but nothing has
		// been fanned out. Boot replay must repair it.
		hook(seq)
	}
	if err := f.commit(seq, clientID, muts, body); err != nil {
		// Unreachable while Check and Apply agree (FuzzOverlayCheck): the
		// sequence is durable but the overlay took only part of it.
		f.failed = true
		f.failReason = fmt.Sprintf("applying sequenced batch %d: %v", seq, err)
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusInternalServerError, code: "fleet_failed",
			msg: "fleet ingest is latched failed and requires a router restart: " + f.failReason}
	}
	st := f.pending[seq]
	item := f.history[len(f.history)-1]
	for _, rs := range f.senders {
		rs.enqueue(item)
	}
	f.mu.Unlock()
	f.s.stats.ingestBatches.Add(1)
	return f.awaitAck(ctx, seq, false, f.s.numShards, st)
}

// awaitAck blocks until seq is fully confirmed, the context dies, or
// ackTimeout passes. st may be nil when the batch already completed.
func (f *fleetIngest) awaitAck(ctx context.Context, seq uint64, replayed bool, shards int, st *ackState) (uint64, bool, int, uint64, *fleetError) {
	if st != nil {
		timer := time.NewTimer(f.ackTimeout)
		defer timer.Stop()
		select {
		case <-st.done:
		case <-ctx.Done():
			return f.partialApply(seq, shards)
		case <-timer.C:
			return f.partialApply(seq, shards)
		case <-f.stopCh:
			return f.partialApply(seq, shards)
		}
	}
	f.mu.Lock()
	wm := f.watermark
	f.mu.Unlock()
	return seq, replayed, shards, wm, nil
}

func (f *fleetIngest) partialApply(seq uint64, shards int) (uint64, bool, int, uint64, *fleetError) {
	f.mu.Lock()
	wm := f.watermark
	f.mu.Unlock()
	f.s.stats.ingestPartial.Add(1)
	return 0, false, 0, 0, &fleetError{
		status: http.StatusServiceUnavailable, code: "fleet_partial_apply",
		msg:       fmt.Sprintf("batch %d is durably sequenced but not yet confirmed by every replica; the router is repairing stragglers in the background — do not re-submit under a new batch_id (fleet watermark %d)", seq, wm),
		watermark: wm,
	}
}

// memStats reports the fleet sequencer's retention footprint for
// /debug/stats: sequencer log bytes on disk, retained (untrimmed) chain
// items and body bytes, the size of the client idempotency index, and
// the edge entries the overlay holds.
func (f *fleetIngest) memStats() (seqlogBytes int64, historyItems int, historyBytes int64, ackedIndex, overlayEdges int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.log.Size(), len(f.history), f.historyBytes, len(f.acked), f.overlay.EdgeEdits()
}

// replicaSender delivers the fleet chain to one replica strictly in
// fleet order: a dedicated goroutine drains an ordered queue, retrying
// each item with backoff until the replica confirms it (or reports a
// gap, which splices the missed chain suffix in front). One slow or
// dead replica therefore never blocks the others — partial-failure
// recovery is per replica — while per-replica ordering keeps every
// follower's engine on the exact fleet sequence.
type replicaSender struct {
	f   *fleetIngest
	sh  *shard
	rep *replica

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*fanItem
	// confirmedSeq is the highest chain seq this replica has confirmed
	// (guarded by f.mu, not rs.mu: confirmation walks shared ack state).
	confirmedSeq uint64
}

func (rs *replicaSender) enqueue(item *fanItem) {
	rs.mu.Lock()
	rs.queue = append(rs.queue, item)
	rs.cond.Signal()
	rs.mu.Unlock()
}

// splice puts items (ascending seq, all below head's seq) in front of
// the queue — the gap-repair path.
func (rs *replicaSender) splice(items []*fanItem, head *fanItem) {
	rs.mu.Lock()
	rest := append([]*fanItem{head}, rs.queue...)
	rs.queue = append(append([]*fanItem{}, items...), rest...)
	rs.mu.Unlock()
}

func (rs *replicaSender) next() *fanItem {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		select {
		case <-rs.f.stopCh:
			return nil
		default:
		}
		if len(rs.queue) > 0 {
			item := rs.queue[0]
			rs.queue[0] = nil
			rs.queue = rs.queue[1:]
			return item
		}
		rs.cond.Wait()
	}
}

func (rs *replicaSender) run() {
	defer rs.f.wg.Done()
	for {
		item := rs.next()
		if item == nil {
			return
		}
		rs.deliver(item)
	}
}

// deliver pushes one item at the replica until it is confirmed, a gap
// reroutes delivery, or the fleet stops. Backoff honours the replica's
// Retry-After hint and is capped; a dead replica is retried forever —
// this loop IS the background catch-up repair.
func (rs *replicaSender) deliver(item *fanItem) {
	f := rs.f
	f.mu.Lock()
	already := item.seq <= rs.confirmedSeq
	f.mu.Unlock()
	if already {
		// Confirmed implicitly by a later in-chain ack during gap
		// repair; nothing to send.
		return
	}
	backoff := 50 * time.Millisecond
	const maxBackoff = 3 * time.Second
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		outcome, hint := rs.attempt(item)
		switch outcome {
		case deliverConfirmed:
			return
		case deliverGap:
			return // splice already rearranged the queue
		case deliverPoison:
			f.latchFailed(fmt.Sprintf("replica %s of shard %d rejected sequenced batch %d as invalid", rs.rep.url, rs.sh.idx, item.seq))
			return
		}
		if hint > backoff {
			backoff = hint
		}
		select {
		case <-f.stopCh:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

type deliverOutcome int

const (
	deliverRetry deliverOutcome = iota
	deliverConfirmed
	deliverGap
	deliverPoison
)

// attempt sends item once and classifies the replica's answer.
func (rs *replicaSender) attempt(item *fanItem) (deliverOutcome, time.Duration) {
	f := rs.f
	ctx, cancel := context.WithTimeout(context.Background(), f.s.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rs.rep.url+"/v1/ingest", bytes.NewReader(item.body))
	if err != nil {
		return deliverRetry, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.s.client.Do(req)
	if err != nil {
		rs.rep.reportFailure(f.s.cfg.FailAfter)
		return deliverRetry, 0
	}
	defer drainBody(resp)

	switch {
	case resp.StatusCode == http.StatusOK:
		rs.rep.reportSuccess()
		rs.confirmThrough(item)
		return deliverConfirmed, 0
	case resp.StatusCode == http.StatusConflict:
		// Gap: the replica's watermark is behind this item's chain
		// predecessor. Splice the missed suffix of the chain in
		// front and let the queue deliver it in order.
		rs.rep.reportSuccess()
		var body struct {
			Reason    string `json:"reason"`
			Watermark uint64 `json:"watermark"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
		if body.Reason != "sequence_gap" {
			return deliverRetry, 0
		}
		f.s.stats.ingestGapReplays.Add(1)
		f.mu.Lock()
		missed := f.chainBetween(body.Watermark, item.seq)
		f.mu.Unlock()
		f.s.logf("router: replica %s shard %d at watermark %d needs %d-item replay before seq %d",
			rs.rep.url, rs.sh.idx, body.Watermark, len(missed), item.seq)
		rs.splice(missed, item)
		return deliverGap, 0
	case resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusForbidden:
		// The batch was checked against the fleet graph before
		// sequencing; a follower calling it malformed holds another
		// graph (a halo-cut store from an older partitioner, say).
		rs.rep.reportSuccess()
		return deliverPoison, 0
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		rs.rep.reportSuccess()
		_, hint := parseTypedError(resp)
		return deliverRetry, hint
	default:
		rs.rep.reportFailure(f.s.cfg.FailAfter)
		return deliverRetry, 0
	}
}

// confirmThrough records that this replica confirmed item — and, by
// the follower's strict in-order application, every earlier item of
// the chain too. Each newly confirmed (seq, replica) pair decrements
// the batch's outstanding count; the last replica completes the batch
// and may advance the fleet watermark.
func (rs *replicaSender) confirmThrough(item *fanItem) {
	f := rs.f
	f.mu.Lock()
	for _, h := range f.chainBetween(rs.confirmedSeq, item.seq+1) {
		if st := f.pending[h.seq]; st != nil {
			if st.remaining--; st.remaining == 0 {
				f.completeLocked(h.seq, st)
			}
		}
	}
	if item.seq > rs.confirmedSeq {
		rs.confirmedSeq = item.seq
	}
	f.trimHistoryLocked()
	f.mu.Unlock()
}

// trimHistoryLocked drops the prefix of the chain that every replica
// has confirmed. A trimmed item can never be replayed again: a gap
// answer carries the replica's durable watermark, which is at least its
// confirmedSeq here, so every replay window chainBetween can be asked
// for starts above the trim point. The slice is copied so the dropped
// bodies are actually released. Caller holds f.mu.
func (f *fleetIngest) trimHistoryLocked() {
	min := uint64(0)
	for i, rs := range f.senders {
		if i == 0 || rs.confirmedSeq < min {
			min = rs.confirmedSeq
		}
	}
	cut := 0
	for cut < len(f.history) && f.history[cut].seq <= min {
		f.historyBytes -= int64(len(f.history[cut].body))
		cut++
	}
	if cut == 0 {
		return
	}
	f.history = append([]*fanItem(nil), f.history[cut:]...)
}

// IngestResponse is the router's POST /v1/ingest ack: the fleet
// sequence, the shard count (every batch reaches every shard), and the
// fleet watermark at ack time. Sent only once every replica of every
// shard has durably applied the batch.
type IngestResponse struct {
	FleetSeq  uint64 `json:"fleet_seq"`
	Replayed  bool   `json:"replayed,omitempty"`
	Shards    int    `json:"shards"`
	Watermark uint64 `json:"watermark"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// handleIngest serves POST /v1/ingest on the routing tier. A router
// started without -seqlog/-ingest-graph keeps the explicit 501.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.fleet == nil {
		s.writeError(w, http.StatusNotImplemented, "ingest_unsupported",
			"this router was started without fleet ingest (-seqlog and -ingest-graph); send mutations to an ingest-enabled daemon or restart the router with sequencing enabled", 0)
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", "router is draining", time.Second)
		return
	}

	var req serve.IngestRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "undecodable body: "+err.Error(), 0)
		return
	}
	if req.FleetSeq != 0 || req.PrevFleetSeq != 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			"fleet_seq is assigned by the router; clients must not pre-sequence batches", 0)
		return
	}
	if req.BatchID == "" || len(req.BatchID) > ingest.MaxFleetClientID {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch_id must be 1-%d bytes", ingest.MaxFleetClientID), 0)
		return
	}
	if len(req.Mutations) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "mutations must not be empty", 0)
		return
	}
	muts, err := serve.DecodeIngestMutations(req.Mutations)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_mutation", err.Error(), 0)
		return
	}

	start := time.Now()
	seq, replayed, shards, wm, ferr := s.fleet.submit(r.Context(), req.BatchID, muts)
	if ferr != nil {
		if ferr.code == "bad_mutation" || ferr.code == "batch_too_large" {
			s.stats.ingestRejected.Add(1)
		}
		extra := map[string]any{}
		if ferr.code == "fleet_partial_apply" {
			extra["watermark"] = ferr.watermark
		}
		_ = serve.WriteJSONError(w, ferr.status, ferr.code, ferr.msg, 0, extra)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		FleetSeq:  seq,
		Replayed:  replayed,
		Shards:    shards,
		Watermark: wm,
		ElapsedMS: time.Since(start).Milliseconds(),
	})
}
