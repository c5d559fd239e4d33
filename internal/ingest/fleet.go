package ingest

import (
	"fmt"
	"strconv"
	"strings"

	"hsgf/internal/graph"
)

// Fleet batch IDs.
//
// The router sequences every fleet mutation batch through its sequencer
// WAL and rewrites the client's batch ID into the composite form
//
//	f<fleetSeq>.<clientID>
//
// before sending the batch to every shard. The composite ID is what
// each shard's engine records in its applied index, which gives the
// fleet two properties for free:
//
//   - idempotency keyed by fleet batch at every shard: a duplicate
//     fan-out — client retry through the router, router
//     crash-replay, or gap repair — hits the engine's existing replay
//     path and acks without re-applying;
//   - a durable per-shard fleet watermark: the highest fleet sequence
//     parsed out of the applied index, maintained incrementally as
//     batches apply and reconstructed from the snapshot on restart.
//
// A uint64 sequence needs at most 20 decimal digits, so with the "f"
// and "." framing a client ID of up to MaxFleetClientID bytes keeps the
// composite within graph.MaxBatchID.
const MaxFleetClientID = graph.MaxBatchID - 22 // "f" + 20 digits + "."

// FleetMaxBatchMutations is the engine mutation cap for fleet-follower
// daemons and the router's cap on one client batch: the router sends
// each client batch unchanged to every follower, so the two are one
// limit. It stays above DefaultMaxBatchMutations, the cap a daemon
// takes from direct clients, so batches the fleet has accepted before
// keep being accepted. The router refuses a larger client batch BEFORE
// sequencing it, because a follower rejecting an already-sequenced
// batch as oversized would permanently poison fleet ingest (the
// sequence is durable and replays on every boot).
const FleetMaxBatchMutations = 1 << 16

// FleetBatchID builds the composite batch ID for a sequenced fleet
// batch.
func FleetBatchID(fleetSeq uint64, clientID string) string {
	return fmt.Sprintf("f%d.%s", fleetSeq, clientID)
}

// ParseFleetSeq extracts the fleet sequence from a composite fleet
// batch ID. It returns false for ordinary (non-fleet) batch IDs; a
// plain-client ID that happens to start with "f" but lacks the
// "f<digits>." frame is not mistaken for a fleet one.
func ParseFleetSeq(batchID string) (uint64, bool) {
	if len(batchID) < 3 || batchID[0] != 'f' {
		return 0, false
	}
	dot := strings.IndexByte(batchID, '.')
	if dot < 2 || dot == len(batchID)-1 {
		return 0, false
	}
	seq, err := strconv.ParseUint(batchID[1:dot], 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	// Reject leading zeros so every sequence has exactly one encoding
	// and the idempotency index cannot alias "f01.x" with "f1.x".
	if batchID[1] == '0' {
		return 0, false
	}
	return seq, true
}

// noteFleetSeq advances the fleet watermark if batchID is a fleet
// batch ID beyond it. Caller holds e.mu (or is inside Open, before the
// engine is shared).
func (e *Engine) noteFleetSeq(batchID string) {
	if seq, ok := ParseFleetSeq(batchID); ok && seq > e.fleetSeq {
		e.fleetSeq = seq
	}
}

// FleetWatermark returns the highest fleet sequence this engine has
// applied, or 0 if it has never seen a fleet batch. A shard refuses a
// fleet batch whose predecessor sequence is not this watermark and
// reports the watermark back so the router can replay the gap.
func (e *Engine) FleetWatermark() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fleetSeq
}

// HasApplied reports whether batchID is still present in the engine's
// applied (idempotency) index. False for an old fleet batch may mean
// "applied but evicted" — callers deciding replay-vs-apply must combine
// this with FleetWatermark, not treat false as "never applied".
func (e *Engine) HasApplied(batchID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.applied[batchID]
	return ok
}
