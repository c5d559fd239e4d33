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
// mutation batch is validated against the router's authoritative
// membership map, assigned a monotone fleet sequence by a CRC-framed
// sequencer WAL (durability point), resolved into per-shard sub-batches
// (owner shard plus every shard whose halo the mutation touches, with
// halo repair woven in by graph.ShardMap), and fanned out to every
// replica of every affected shard. Replicas apply strictly in fleet
// order — the sub-batch carries (fleet_seq, prev_fleet_seq) and a shard
// at a different watermark refuses with 409 sequence_gap, which the
// sender repairs by replaying the missed suffix of that shard's chain
// from the in-memory history backed by the sequencer log.
//
// The client ack contract: 200 only after every replica of every
// affected shard confirmed the sub-batch; otherwise a machine-readable
// 503 fleet_partial_apply carrying the fleet watermark, while senders
// keep retrying in the background until stragglers converge. Duplicate
// client batch IDs ack idempotently at the router, and the composite
// fleet batch ID makes the fan-out idempotent at every shard.

// fanItem is one shard's sub-batch of one sequenced fleet batch: the
// fully marshalled follower request, shared by every replica sender of
// that shard and retained in the shard's chain history for gap replay.
type fanItem struct {
	seq   uint64
	prev  uint64 // previous fleet seq that touched this shard (0 = first)
	shard int
	body  []byte
}

// ackState tracks one sequenced batch's outstanding replica confirms.
type ackState struct {
	remaining int
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
	s   *Server
	sm  *graph.ShardMap
	log *store.WAL // the sequencer log, records numbered 1..N by fleet seq; guarded by mu

	ackTimeout time.Duration

	mu sync.Mutex
	// failed latches when fleet state can no longer be trusted to match
	// the sequencer log (sequencer IO failure after partial write, a
	// post-validate apply failure, or a shard rejecting a sequenced
	// sub-batch as malformed). Every later submit is refused; a restart
	// rebuilds from the log.
	failed     bool
	failReason string
	// lastTouched[s] is the newest fleet seq whose fan-out touched shard
	// s: the prev_fleet_seq link for the next sub-batch bound there.
	lastTouched []uint64
	// history[s] is shard s's sub-batch chain in ascending seq order —
	// the gap-repair replay source, rebuilt from the sequencer log on
	// boot. Items at or below every replica's confirmed watermark can
	// never be replayed again, so confirmThrough trims them as confirms
	// land; only the unconfirmed suffix is retained in memory.
	history [][]*fanItem
	// historyBytes tracks the retained sub-batch body bytes across all
	// shard chains (a /debug/stats gauge).
	historyBytes int64
	pending      map[uint64]*ackState
	complete     map[uint64]bool // fully confirmed but above the watermark
	// watermark is the highest seq with every seq at or below it fully
	// confirmed by all replicas of all affected shards.
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
	// growth[seq] is the routing-table growth seq's batch produced
	// (new shard members and the fleet node count after the batch),
	// deferred until the fleet watermark passes seq: /v1/features must
	// not admit a root and route it to replicas that have not applied
	// the batch that created it.
	growth map[uint64]*pendingGrowth

	senders      []*replicaSender
	shardSenders [][]*replicaSender // senders grouped by shard index
	stopCh       chan struct{}
	stopped      bool
	wg           sync.WaitGroup
}

// pendingGrowth is one sequenced batch's deferred routing-table growth.
type pendingGrowth struct {
	numNodes int64           // fleet node count once this seq is confirmed
	perShard map[int][]int64 // shard -> new member globals, assignment order
}

// newFleetIngest builds the fleet ingest state: an authoritative
// ShardMap cross-checked against the manifest, the sequencer log, and
// one ordered sender per (shard, replica). Every record already in the
// log is replayed through the ShardMap (deterministically regenerating
// the exact sub-batches of the previous run) and each shard chain's
// tail is enqueued to its replicas: an up-to-date replica replay-acks
// the tail in one round trip — implicitly confirming its whole chain —
// while a replica that crashed mid-stream answers 409 with its
// watermark and gets the missed suffix replayed. That makes boot the
// same code path as steady-state gap repair, and it is what repairs a
// router killed between sequencing and fan-out.
func newFleetIngest(s *Server, g *graph.Graph, path string) (*fleetIngest, error) {
	sm, err := graph.NewShardMap(g, graph.PartitionConfig{
		NumShards: s.m.NumShards,
		HaloDepth: s.m.HaloDepth,
	})
	if err != nil {
		return nil, fmt.Errorf("router: ingest shard map: %w", err)
	}
	// The ShardMap must agree with the manifest the shards were cut
	// from, or local-ID translation would silently corrupt mutations.
	for i := range s.shards {
		man := s.m.Shards[i].LocalToGlobal
		if sm.ShardSize(i) != len(man) {
			return nil, fmt.Errorf("router: ingest graph disagrees with manifest: shard %d has %d members, manifest %d (wrong -ingest-graph?)",
				i, sm.ShardSize(i), len(man))
		}
		for local, global := range man {
			if l, ok := sm.LocalID(i, global); !ok || int(l) != local {
				return nil, fmt.Errorf("router: ingest graph disagrees with manifest: shard %d node %d", i, global)
			}
		}
	}

	log, recs, err := store.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	f := &fleetIngest{
		s:            s,
		sm:           sm,
		log:          log,
		ackTimeout:   s.cfg.IngestAckTimeout,
		lastTouched:  make([]uint64, s.m.NumShards),
		history:      make([][]*fanItem, s.m.NumShards),
		pending:      make(map[uint64]*ackState),
		complete:     make(map[uint64]bool),
		acked:        make(map[string]uint64),
		growth:       make(map[uint64]*pendingGrowth),
		shardSenders: make([][]*replicaSender, s.m.NumShards),
		stopCh:       make(chan struct{}),
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
		if _, err := f.sequencedApply(rec.Seq, clientID, muts); err != nil {
			log.Close()
			return nil, fmt.Errorf("router: replaying sequencer record %d: %w", rec.Seq, err)
		}
	}

	for _, sh := range s.shards {
		for _, rep := range sh.replicas {
			rs := &replicaSender{f: f, sh: sh, rep: rep}
			rs.cond = sync.NewCond(&rs.mu)
			// Catch-up entry point: the tail of this shard's chain. Its
			// ack confirms the whole chain; a gap answer pulls in the
			// missed middle.
			if chain := f.history[sh.idx]; len(chain) > 0 {
				rs.queue = append(rs.queue, chain[len(chain)-1])
			}
			f.senders = append(f.senders, rs)
			f.shardSenders[sh.idx] = append(f.shardSenders[sh.idx], rs)
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

// stageBatch resolves one batch against the membership map and builds
// the per-shard sub-batch bodies for sequence seq WITHOUT committing
// any fleet bookkeeping: chain links, history, acks, and routing-table
// growth are installed by commitBatch once the sequence is durable. The
// returned undo rolls the membership map back to its pre-batch state —
// the refusal path for a batch whose sub-batches overflow the follower
// limits. Caller holds f.mu or is inside newFleetIngest before the
// state is shared. The emitted sub-batches are deterministic in the
// ShardMap state, so a boot-time replay regenerates byte-identical
// bodies to the run that crashed.
func (f *fleetIngest) stageBatch(seq uint64, clientID string, muts []graph.Mutation) (items []*fanItem, deltas []graph.ShardDelta, undo func(), err error) {
	deltas, undo, err = f.sm.ApplyStaged(muts)
	if err != nil {
		return nil, nil, nil, err
	}
	batchID := ingest.FleetBatchID(seq, clientID)
	items = make([]*fanItem, 0, len(deltas))
	for _, d := range deltas {
		wire := make([]serve.IngestMutation, len(d.Muts))
		for i, m := range d.Muts {
			wire[i] = serve.IngestMutation{Op: m.Op.String(), U: int64(m.U), V: int64(m.V), Label: m.Label, Name: m.Name}
		}
		body, merr := json.Marshal(serve.IngestRequest{
			BatchID:      batchID,
			FleetSeq:     seq,
			PrevFleetSeq: f.lastTouched[d.Shard],
			Mutations:    wire,
		})
		if merr != nil {
			undo()
			return nil, nil, nil, merr
		}
		items = append(items, &fanItem{seq: seq, prev: f.lastTouched[d.Shard], shard: d.Shard, body: body})
	}
	return items, deltas, undo, nil
}

// checkSubBatchLimits refuses a staged batch whose sub-batches the
// followers would reject: mutation count over the engine cap or body
// over the follower request bound. The check runs BEFORE the batch
// takes a durable sequence — a follower 400 on a sequenced sub-batch
// latches fleet ingest failed and, because boot replay regenerates the
// identical sub-batch from the sequencer log, would re-latch it on
// every restart. Refusing up front keeps oversized batches a plain
// client error.
func (f *fleetIngest) checkSubBatchLimits(items []*fanItem, deltas []graph.ShardDelta) *fleetError {
	maxMuts, maxBytes := f.s.cfg.MaxSubBatchMutations, f.s.cfg.MaxSubBatchBytes
	for i, item := range items {
		if n := len(deltas[i].Muts); n > maxMuts {
			return &fleetError{status: http.StatusBadRequest, code: "batch_too_large",
				msg: fmt.Sprintf("shard %d sub-batch would carry %d mutations (halo repair included), over the follower cap %d; split the batch — or, if one mutation's halo expansion alone overflows, raise the fleet limits on both tiers", item.shard, n, maxMuts)}
		}
		if len(item.body) > maxBytes {
			return &fleetError{status: http.StatusBadRequest, code: "batch_too_large",
				msg: fmt.Sprintf("shard %d sub-batch body would be %d bytes (halo repair included), over the follower cap %d; split the batch — or, if one mutation's halo expansion alone overflows, raise the fleet limits on both tiers", item.shard, len(item.body), maxBytes)}
		}
	}
	return nil
}

// commitBatch installs a staged batch's fleet bookkeeping: chain links,
// history, the pending ack state, the client idempotency index, and the
// deferred routing-table growth. Caller holds f.mu (or is inside
// newFleetIngest) and has made seq durable in the sequencer log.
func (f *fleetIngest) commitBatch(seq uint64, clientID string, items []*fanItem, deltas []graph.ShardDelta) {
	remaining := 0
	var grow *pendingGrowth
	for i, item := range items {
		f.lastTouched[item.shard] = seq
		f.history[item.shard] = append(f.history[item.shard], item)
		f.historyBytes += int64(len(item.body))
		remaining += len(f.s.shards[item.shard].replicas)

		if d := deltas[i]; len(d.NewNodes) > 0 {
			globals := make([]int64, len(d.NewNodes))
			for j, g := range d.NewNodes {
				globals[j] = int64(g)
			}
			if grow == nil {
				grow = &pendingGrowth{perShard: make(map[int][]int64)}
			}
			grow.perShard[d.Shard] = globals
		}
	}
	if grow != nil {
		grow.numNodes = int64(f.sm.NumNodes())
		f.growth[seq] = grow
	}

	f.acked[clientID] = seq
	st := &ackState{remaining: remaining, done: make(chan struct{})}
	f.pending[seq] = st
	if remaining == 0 {
		// Defensive: a batch that touches no shard (unreachable today —
		// every mutation has an owner) completes immediately.
		f.completeLocked(seq, st)
	}
}

// sequencedApply is the boot-replay path: stage plus commit for a
// record already durable in the sequencer log. Limits are deliberately
// NOT re-checked — the record passed them before it was appended, and
// regeneration is deterministic; refusing here would brick boot if an
// operator lowered the limits across a restart.
func (f *fleetIngest) sequencedApply(seq uint64, clientID string, muts []graph.Mutation) ([]*fanItem, error) {
	items, deltas, _, err := f.stageBatch(seq, clientID, muts)
	if err != nil {
		return nil, err
	}
	f.commitBatch(seq, clientID, items, deltas)
	return items, nil
}

// completeLocked marks seq fully confirmed and advances the fleet
// watermark over any now-contiguous prefix, applying each passed
// batch's deferred routing-table growth in sequence order. Caller
// holds f.mu.
func (f *fleetIngest) completeLocked(seq uint64, st *ackState) {
	delete(f.pending, seq)
	f.complete[seq] = true
	close(st.done)
	for f.complete[f.watermark+1] {
		delete(f.complete, f.watermark+1)
		f.watermark++
		f.applyGrowthLocked(f.watermark)
	}
	f.s.stats.fleetWatermark.Store(f.watermark)
}

// applyGrowthLocked installs the routing-table growth of a batch the
// fleet watermark just passed: new member globals on each grown
// shard's ID tables and the advanced fleet node count that /v1/features
// validates roots against. Growth is deferred to this point — not
// applied at sequencing — so the router never admits a root and routes
// it to a replica that has not yet applied the batch that created it.
// Watermark advance is contiguous, so growth applies in exact sequence
// order and the node-count monotonically rises. Caller holds f.mu.
func (f *fleetIngest) applyGrowthLocked(seq uint64) {
	grow, ok := f.growth[seq]
	if !ok {
		return
	}
	delete(f.growth, seq)
	for sh, globals := range grow.perShard {
		f.s.shards[sh].growIDs(globals)
	}
	f.s.numNodes.Store(grow.numNodes)
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

// chainBetween returns shard sh's history items with seq in (after,
// upTo) — the gap-replay window between a replica's watermark and the
// item it refused. Caller holds f.mu.
func (f *fleetIngest) chainBetween(sh int, after, upTo uint64) []*fanItem {
	chain := f.history[sh]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > after })
	var out []*fanItem
	for ; i < len(chain) && chain[i].seq < upTo; i++ {
		out = append(out, chain[i])
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
	if err := f.sm.Validate(muts); err != nil {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "bad_mutation", msg: err.Error()}
	}
	payload, err := graph.EncodeMutations(clientID, muts)
	if err != nil {
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusBadRequest, code: "bad_mutation", msg: err.Error()}
	}
	// Stage against the next sequence BEFORE appending to the sequencer:
	// the sub-batch limit check must be able to refuse the batch with a
	// plain 400 and roll the membership map back, which is only possible
	// while nothing is durable yet. f.mu serialises every Append, so the
	// staged sequence is the one the log takes.
	seq = f.log.LastSeq() + 1
	items, deltas, undo, err := f.stageBatch(seq, clientID, muts)
	if err != nil {
		// Validate passed, so this is a bug or resource exhaustion.
		// Nothing is durable and the membership map was rolled back, so
		// refuse this batch without latching the fleet.
		f.mu.Unlock()
		return 0, false, 0, 0, &fleetError{status: http.StatusInternalServerError, code: "fleet_failed",
			msg: "batch failed to resolve against the membership map; not sequenced, safe to retry: " + err.Error()}
	}
	if ferr := f.checkSubBatchLimits(items, deltas); ferr != nil {
		undo()
		f.mu.Unlock()
		return 0, false, 0, 0, ferr
	}
	if err := f.log.Append(seq, payload); err != nil {
		// The sequencer could not make the assignment durable; the WAL
		// layer has rolled back or poisoned itself, so nothing was
		// acked and nothing may proceed.
		undo()
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
	f.commitBatch(seq, clientID, items, deltas)
	st := f.pending[seq] // may already be gone for a zero-shard batch
	for _, item := range items {
		for _, rs := range f.shardSenders[item.shard] {
			rs.enqueue(item)
		}
	}
	f.mu.Unlock()
	f.s.stats.ingestBatches.Add(1)
	return f.awaitAck(ctx, seq, false, len(items), st)
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
		msg:       fmt.Sprintf("batch %d is durably sequenced but not yet confirmed by every affected shard; the router is repairing stragglers in the background — do not re-submit under a new batch_id (fleet watermark %d)", seq, wm),
		watermark: wm,
	}
}

// watermarkNow returns the current fleet watermark.
func (f *fleetIngest) watermarkNow() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watermark
}

// memStats reports the fleet sequencer's retention footprint for
// /debug/stats: sequencer log bytes on disk, retained (untrimmed)
// history items and body bytes across all shard chains, and the size
// of the client idempotency index.
func (f *fleetIngest) memStats() (seqlogBytes int64, historyItems int, historyBytes int64, ackedIndex int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, chain := range f.history {
		historyItems += len(chain)
	}
	return f.log.Size(), historyItems, f.historyBytes, len(f.acked)
}

// replicaSender delivers one replica's sub-batch stream strictly in
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
			f.latchFailed(fmt.Sprintf("replica %s rejected sequenced sub-batch %d for shard %d as invalid", rs.rep.url, item.seq, item.shard))
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
		// predecessor. Splice the missed suffix of this shard's chain in
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
		missed := f.chainBetween(item.shard, body.Watermark, item.seq)
		f.mu.Unlock()
		f.s.logf("router: replica %s shard %d at watermark %d needs %d-item replay before seq %d",
			rs.rep.url, item.shard, body.Watermark, len(missed), item.seq)
		rs.splice(missed, item)
		return deliverGap, 0
	case resp.StatusCode == http.StatusBadRequest || resp.StatusCode == http.StatusForbidden:
		// The sub-batch was validated fleet-wide before sequencing; a
		// follower calling it malformed means state has diverged.
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
// this shard's chain too. Each newly confirmed (seq, replica) pair
// decrements the batch's outstanding count; the last replica of the
// last shard completes the batch and may advance the fleet watermark.
func (rs *replicaSender) confirmThrough(item *fanItem) {
	f := rs.f
	f.mu.Lock()
	for _, h := range f.chainBetween(item.shard, rs.confirmedSeq, item.seq+1) {
		if st := f.pending[h.seq]; st != nil {
			if st.remaining--; st.remaining == 0 {
				f.completeLocked(h.seq, st)
			}
		}
	}
	if item.seq > rs.confirmedSeq {
		rs.confirmedSeq = item.seq
	}
	f.trimHistoryLocked(item.shard)
	f.mu.Unlock()
}

// trimHistoryLocked drops the prefix of shard sh's chain that every
// replica of the shard has confirmed. A trimmed item can never be
// replayed again: a gap answer carries the replica's durable watermark,
// which is at least its confirmedSeq here, so every replay window
// chainBetween can be asked for starts above the trim point. The slice
// is copied so the dropped bodies are actually released. Caller holds
// f.mu.
func (f *fleetIngest) trimHistoryLocked(sh int) {
	min := uint64(0)
	for i, rs := range f.shardSenders[sh] {
		if i == 0 || rs.confirmedSeq < min {
			min = rs.confirmedSeq
		}
	}
	chain := f.history[sh]
	cut := 0
	for cut < len(chain) && chain[cut].seq <= min {
		f.historyBytes -= int64(len(chain[cut].body))
		cut++
	}
	if cut == 0 {
		return
	}
	f.history[sh] = append([]*fanItem(nil), chain[cut:]...)
}

// IngestResponse is the router's POST /v1/ingest ack: the fleet
// sequence, how many shards the batch touched, and the fleet watermark
// at ack time. Sent only once every replica of every affected shard
// has durably applied the batch.
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
