package router

import (
	"net/http"
	"sync/atomic"
	"time"

	"hsgf/internal/latency"
)

// routerStats are the routing tier's live counters, exposed at
// /debug/stats. All monotonic; read with atomic loads.
type routerStats struct {
	requests          atomic.Int64 // batches admitted
	rootsRouted       atomic.Int64 // roots across all batches
	shardCalls        atomic.Int64 // successful shard calls
	retries           atomic.Int64 // shard-call re-attempts (attempt > 1)
	hedges            atomic.Int64 // hedge legs fired on the p95 timer
	hedgeWins         atomic.Int64 // shard calls the hedge leg answered before the primary
	failovers         atomic.Int64 // immediate failover legs after primary failure
	breakerRejects    atomic.Int64 // shard calls short-circuited by an open breaker
	unavailableRows   atomic.Int64 // rows degraded shard-unavailable
	degradedResponses atomic.Int64 // 200s with any flagged row
	spliceFallbacks   atomic.Int64 // replica bodies decoded by encoding/json, not scanned
	fleetReloads      atomic.Int64 // fleet reload attempts
	fleetReloadOK     atomic.Int64
	fleetReloadFailed atomic.Int64

	ingestBatches    atomic.Int64  // batches sequenced and fanned out
	ingestReplayed   atomic.Int64  // duplicate client batches acked idempotently
	ingestRejected   atomic.Int64  // batches refused at validation
	ingestPartial    atomic.Int64  // acks timed out into 503 fleet_partial_apply
	ingestGapReplays atomic.Int64  // replica chains repaired after a sequence_gap
	fleetWatermark   atomic.Uint64 // highest fully confirmed fleet sequence

	// latency holds the durations of recent 200 /v1/features responses.
	latency latency.Histogram
}

// StatsResponse is the GET /debug/stats body.
type StatsResponse struct {
	Requests          int64 `json:"requests"`
	RootsRouted       int64 `json:"roots_routed"`
	ShardCalls        int64 `json:"shard_calls"`
	Retries           int64 `json:"retries"`
	Hedges            int64 `json:"hedges"`
	HedgeWins         int64 `json:"hedge_wins"`
	Failovers         int64 `json:"failovers"`
	BreakerRejects    int64 `json:"breaker_rejects"`
	UnavailableRows   int64 `json:"unavailable_rows"`
	DegradedResponses int64 `json:"degraded_responses"`
	// SpliceFallbacks counts replica bodies in a shape other than the
	// one serve writes, decoded by encoding/json instead of scanned.
	SpliceFallbacks   int64 `json:"splice_fallbacks"`
	FleetReloads      int64 `json:"fleet_reloads"`
	FleetReloadOK     int64 `json:"fleet_reload_ok"`
	FleetReloadFailed int64 `json:"fleet_reload_failed"`

	IngestBatches    int64  `json:"ingest_batches"`
	IngestReplayed   int64  `json:"ingest_replayed"`
	IngestRejected   int64  `json:"ingest_rejected"`
	IngestPartial    int64  `json:"ingest_partial"`
	IngestGapReplays int64  `json:"ingest_gap_replays"`
	FleetWatermark   uint64 `json:"fleet_watermark"`

	// Sequencer retention gauges, present only on ingest-enabled
	// routers: sequencer WAL bytes on disk, the untrimmed fleet chain
	// (items and body bytes), client idempotency index entries, and the
	// edge entries of the overlay batches are checked against (edges
	// added over the ingest graph plus its edges removed).
	FleetSeqlogBytes  int64 `json:"fleet_seqlog_bytes,omitempty"`
	FleetHistoryItems int   `json:"fleet_history_items,omitempty"`
	FleetHistoryBytes int64 `json:"fleet_history_bytes,omitempty"`
	FleetAckedIndex   int   `json:"fleet_acked_index,omitempty"`
	FleetOverlayEdges int   `json:"fleet_overlay_edges,omitempty"`

	// Latency summarises the durations of the last latency.Window 200
	// /v1/features responses.
	Latency latency.Summary `json:"latency"`

	Shards []ShardStats `json:"shards"`
}

// ShardStats is one shard's live client-side state.
type ShardStats struct {
	Shard           int     `json:"shard"`
	Breaker         string  `json:"breaker"`
	HealthyReplicas int     `json:"healthy_replicas"`
	Replicas        int     `json:"replicas"`
	P95MS           float64 `json:"p95_ms,omitempty"`
	HedgeDelayMS    float64 `json:"hedge_delay_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Requests:          s.stats.requests.Load(),
		RootsRouted:       s.stats.rootsRouted.Load(),
		ShardCalls:        s.stats.shardCalls.Load(),
		Retries:           s.stats.retries.Load(),
		Hedges:            s.stats.hedges.Load(),
		HedgeWins:         s.stats.hedgeWins.Load(),
		Failovers:         s.stats.failovers.Load(),
		BreakerRejects:    s.stats.breakerRejects.Load(),
		UnavailableRows:   s.stats.unavailableRows.Load(),
		DegradedResponses: s.stats.degradedResponses.Load(),
		SpliceFallbacks:   s.stats.spliceFallbacks.Load(),
		FleetReloads:      s.stats.fleetReloads.Load(),
		FleetReloadOK:     s.stats.fleetReloadOK.Load(),
		FleetReloadFailed: s.stats.fleetReloadFailed.Load(),
		IngestBatches:     s.stats.ingestBatches.Load(),
		IngestReplayed:    s.stats.ingestReplayed.Load(),
		IngestRejected:    s.stats.ingestRejected.Load(),
		IngestPartial:     s.stats.ingestPartial.Load(),
		IngestGapReplays:  s.stats.ingestGapReplays.Load(),
		FleetWatermark:    s.stats.fleetWatermark.Load(),
		Latency:           s.stats.latency.Summary(),
	}
	if s.fleet != nil {
		resp.FleetSeqlogBytes, resp.FleetHistoryItems, resp.FleetHistoryBytes, resp.FleetAckedIndex, resp.FleetOverlayEdges = s.fleet.memStats()
	}
	for _, sh := range s.shards {
		st := ShardStats{
			Shard:        sh.idx,
			Breaker:      sh.brk.State().String(),
			Replicas:     len(sh.replicas),
			HedgeDelayMS: float64(s.hedgeDelay(sh)) / float64(time.Millisecond),
		}
		for _, rep := range sh.replicas {
			if rep.healthy.Load() {
				st.HealthyReplicas++
			}
		}
		p95, _ := sh.lat.Quantile(0.95)
		st.P95MS = float64(p95) / float64(time.Millisecond)
		resp.Shards = append(resp.Shards, st)
	}
	writeJSON(w, http.StatusOK, resp)
}
