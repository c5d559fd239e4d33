package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's metric contract; BENCHMARK.json lists the
// same names and units, and the self-test checks that they agree.
type metricDef struct{ name, unit string }

// endToEnd metrics are what a user of the system sees. Every workload
// reports every one of them; README.md says what each means per
// workload, and why throughput and tail percentiles are per-layer
// numbers instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"latency_p50_ms", "ms"},
}

// censusNets are the three evaluation networks of the extract workload,
// in the order the paper reports them.
var censusNets = []string{"LOAD", "IMDB", "MAG"}

// perLayer metrics come from the traced run. A layer that does no work
// in a workload reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"router.read_self_us.p50", "us"},
		{"router.read_self_us.p99", "us"},
		{"router.shard_call_us.p50", "us"},
		{"router.shard_call_us.p99", "us"},
		{"router.hedge_legs_per_req", "1"},
		{"router.hedge_useful_frac", "1"},
		{"router.retries", "count"},
		{"router.failovers", "count"},
		{"router.ingest_self_ms.p50", "ms"},
		{"router.seqlog_bytes", "bytes"},
		{"router.acked_index", "count"},

		{"serve.features_us.p50", "us"},
		{"serve.features_us.p99", "us"},
		{"serve.cache_hit_frac", "1"},
		{"serve.cache_coalesced", "count"},
		{"serve.cache_epochs", "count"},
		{"serve.queued_frac", "1"},
		{"serve.shed", "count"},
		{"serve.response_bytes_per_row", "bytes"},
		{"serve.ingest_ms.p50", "ms"},
		{"serve.ingest_ms.p90", "ms"},

		{"ingest.apply_ms.p50", "ms"},
		{"ingest.apply_ms.p99", "ms"},
		{"ingest.dirty_roots_mean", "count"},
		{"ingest.dirty_frac", "1"},
		{"ingest.compactions", "count"},
		{"ingest.wal_bytes_per_batch", "bytes"},
	}
	for _, n := range censusNets {
		defs = append(defs,
			metricDef{"census.roots_per_s." + n, "1/s"},
			metricDef{"census.root_ms.p50." + n, "ms"},
			metricDef{"census.root_ms.p99." + n, "ms"})
	}
	defs = append(defs,
		metricDef{"census.subgraphs_per_s", "1/s"},
		metricDef{"census.allocs_per_root", "count"},
		metricDef{"features.build_ms", "ms"},

		metricDef{"boot.graph_load_s", "s"},
		metricDef{"boot.follower_open_s", "s"},
		metricDef{"boot.router_s", "s"},

		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.alloc_bytes_per_req", "bytes"},
		metricDef{"loadgen.late_ms.p99", "ms"},
		metricDef{"loadgen.late_ms.max", "ms"},

		metricDef{"client.read_capacity_per_s", "1/s"},
		metricDef{"client.read_attempted", "count"},
		metricDef{"client.read_failed", "count"},
		metricDef{"client.read_p50_ms", "ms"},
		metricDef{"client.read_p90_ms", "ms"},
		metricDef{"client.read_p99_ms", "ms"},
		metricDef{"client.write_attempted", "count"},
		metricDef{"client.write_failed", "count"},
		metricDef{"client.write_ack_p50_ms", "ms"},
		metricDef{"client.write_ack_p90_ms", "ms"},
	)
	// Tracing overhead: the traced run's end-to-end value minus the
	// untraced run's, same seed, same inputs, in the metric's own unit.
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace.overhead." + m.name, m.unit})
	}
	return defs
}()

// setLayerDefaults gives every per-layer metric the value 0, the value
// of a layer that does no work in the workload; the workload then
// overwrites the metrics of the layers it exercises.
func setLayerDefaults(r *report) {
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
}

// percentile returns the nearest-rank p-quantile (p in [0,1]) of xs,
// sorting xs in place; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencySummary describes a latency sample for the run metadata: its
// size and a few quantiles in milliseconds.
func latencySummary(ds []time.Duration) map[string]float64 {
	xs := durations(ds, ms)
	return map[string]float64{
		"n": float64(len(xs)), "p50": percentile(xs, 0.50), "p90": percentile(xs, 0.90),
		"p95": percentile(xs, 0.95), "p99": percentile(xs, 0.99), "max": percentile(xs, 1),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a duration sample to float64s in the given unit.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
