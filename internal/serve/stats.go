package serve

import (
	"sync/atomic"

	"hsgf/internal/latency"
)

// Stats aggregates the daemon's lifecycle counters. All fields are
// updated atomically; Snapshot assembles a consistent-enough view for
// /debug/stats (counters may be mutually off by in-flight requests, a
// tolerable skew for operational telemetry).
type Stats struct {
	// Request admission outcomes.
	accepted atomic.Int64 // entered extraction
	queued   atomic.Int64 // waited in the admission queue before a slot
	shed     atomic.Int64 // rejected 429: queue full
	tripped  atomic.Int64 // rejected 503: breaker open
	drained  atomic.Int64 // rejected 503: draining

	// Request completion outcomes.
	completed atomic.Int64 // 200 responses
	degraded  atomic.Int64 // 200 responses with >= 1 flagged row
	panicked  atomic.Int64 // handler panics recovered into 500s
	badReq    atomic.Int64 // 400 responses
	// writeFailed counts response bodies that failed mid-write (the
	// client hung up after the handler committed the status). The write
	// cannot be retried, but a climbing counter is the difference
	// between "clients are timing out on us" and silence.
	writeFailed atomic.Int64

	// Hot-reload outcomes.
	reloads      atomic.Int64 // reload attempts (SIGHUP or admin endpoint)
	reloadOK     atomic.Int64 // attempts that swapped a new generation in
	reloadFailed atomic.Int64 // attempts that kept the old generation

	// latency holds the durations of recent 200 /v1/features responses.
	latency latency.Histogram
}

// StatsSnapshot is the JSON shape of /debug/stats.
type StatsSnapshot struct {
	Accepted  int64 `json:"accepted"`
	Queued    int64 `json:"queued"`
	Shed      int64 `json:"shed"`
	Tripped   int64 `json:"tripped"`
	Drained   int64 `json:"drained"`
	Completed int64 `json:"completed"`
	Degraded  int64 `json:"degraded"`
	Panicked  int64 `json:"panicked"`
	BadReq    int64 `json:"bad_request"`
	// WriteFailed counts responses whose body write failed after the
	// status was committed (client gone mid-response).
	WriteFailed int64 `json:"write_failed"`

	InFlight   int64 `json:"in_flight"`
	QueueDepth int64 `json:"queue_depth"`

	BreakerState string `json:"breaker_state"`
	Draining     bool   `json:"draining"`

	// Hot-reload state: the serving generation and the reload counters.
	Generation   uint64         `json:"generation,omitempty"`
	Fingerprint  string         `json:"fingerprint,omitempty"`
	Reloads      int64          `json:"reloads"`
	ReloadOK     int64          `json:"reload_ok"`
	ReloadFailed int64          `json:"reload_failed"`
	LastReload   *ReloadOutcome `json:"last_reload,omitempty"`

	// Ingest is the streaming-ingest freshness watermark; absent when
	// the daemon runs without an ingest engine.
	Ingest *IngestStatus `json:"ingest,omitempty"`

	// Cache is the feature-row cache block (hits/misses/coalesce and
	// the serving epoch); absent when the cache is disabled.
	Cache *CacheStats `json:"cache,omitempty"`

	// Latency summarises the durations of the last latency.Window 200
	// /v1/features responses.
	Latency latency.Summary `json:"latency"`
}

// snapshot captures the counters; breaker state and draining flag are
// filled in by the server, which owns those components.
func (s *Stats) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Accepted:    s.accepted.Load(),
		Queued:      s.queued.Load(),
		Shed:        s.shed.Load(),
		Tripped:     s.tripped.Load(),
		Drained:     s.drained.Load(),
		Completed:   s.completed.Load(),
		Degraded:    s.degraded.Load(),
		Panicked:    s.panicked.Load(),
		BadReq:      s.badReq.Load(),
		WriteFailed: s.writeFailed.Load(),

		Reloads:      s.reloads.Load(),
		ReloadOK:     s.reloadOK.Load(),
		ReloadFailed: s.reloadFailed.Load(),

		Latency: s.latency.Summary(),
	}
	return snap
}
