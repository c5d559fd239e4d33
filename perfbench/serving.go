package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hsgf/internal/core"
	"hsgf/internal/graph"
	"hsgf/internal/serve"
)

// gateRoots is the fixed root sample the serving gates compare: the two
// most popular roots of every population of the read stream and 16
// seeded roots from the unpopular half, which are unlikely to be cached.
func gateRoots(seed int64, rs *readStream, nodes int) []int64 {
	var roots []int64
	for p := 0; p < populations; p++ {
		for r := 0; r < 2 && r < nodes; r++ {
			roots = append(roots, rs.rank(p, r))
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < 16 && nodes > 32; i++ {
		roots = append(roots, rs.rank(i%populations, nodes/2+rng.Intn(nodes-nodes/2)))
	}
	return roots
}

// checkRows reads roots through the router and compares every row with
// the census of the unsharded reference extractor, by encoding string.
func checkRows(ctx context.Context, cl *client, ex *core.Extractor, roots []int64) error {
	for lo := 0; lo < len(roots); lo += rootsPerRead {
		batch := roots[lo:min(lo+rootsPerRead, len(roots))]
		rows, err := cl.read(ctx, fmt.Sprintf("gate%d", lo), batch, true)
		if err != nil {
			return gatef("%v", err)
		}
		for i, row := range rows {
			if err := sameRow(ex, graph.NodeID(batch[i]), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameRow compares one served row with the reference census of root.
func sameRow(ex *core.Extractor, root graph.NodeID, row serve.FeatureRow) error {
	c := ex.Census(root)
	if row.Flags != c.Flags.String() || row.Truncated != c.Truncated || row.Subgraphs != c.Subgraphs {
		return gatef("root %d: served flags %q truncated %v subgraphs %d, reference %q %v %d",
			root, row.Flags, row.Truncated, row.Subgraphs, c.Flags.String(), c.Truncated, c.Subgraphs)
	}
	if len(row.Counts) != len(c.Counts) {
		return gatef("root %d: served %d subgraph types, reference %d", root, len(row.Counts), len(c.Counts))
	}
	for key, n := range c.Counts {
		enc := ex.EncodingString(key)
		if row.Counts[enc] != n {
			return gatef("root %d: %s served %d, reference %d", root, enc, row.Counts[enc], n)
		}
	}
	return nil
}

// corruptOneCount rewrites a replica /v1/features body with the first
// count of its first non-empty row raised by one. The self-test installs
// it in the router's transport to prove the gates catch a wrong count.
func corruptOneCount(raw []byte) []byte {
	var fr serve.FeaturesResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		return raw
	}
	for _, row := range fr.Rows {
		if len(row.Counts) == 0 {
			continue
		}
		keys := make([]string, 0, len(row.Counts))
		for k := range row.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		row.Counts[keys[0]]++
		out, err := json.Marshal(fr)
		if err != nil {
			return raw
		}
		return out
	}
	return raw
}

// servingLayers fills the per-layer metrics both serving workloads
// share: router and replica counters as deltas over the timed phase,
// span-derived latencies and the Go runtime's GC and allocation deltas.
// ops is the number of client operations in the timed phase.
func servingLayers(r *report, before, after *counters, st spanStats, ops int, bt bootTimes) {
	l := r.layer
	l["router.read_self_us.p50"] = percentile(durations(st.readSelf, us), 0.50)
	l["router.read_self_us.p99"] = percentile(durations(st.readSelf, us), 0.99)
	l["router.shard_call_us.p50"] = percentile(durations(st.shardCall, us), 0.50)
	l["router.shard_call_us.p99"] = percentile(durations(st.shardCall, us), 0.99)
	reqs := float64(after.router.Requests - before.router.Requests)
	l["router.hedge_legs_per_req"] = ratio(float64(after.router.Hedges-before.router.Hedges), reqs)
	l["router.hedge_useful_frac"] = ratio(float64(st.hedgeUseful), float64(st.hedgeLegs))
	l["router.retries"] = float64(after.router.Retries - before.router.Retries)
	l["router.failovers"] = float64(after.router.Failovers - before.router.Failovers)

	l["serve.features_us.p50"] = percentile(durations(st.serveRead, us), 0.50)
	l["serve.features_us.p99"] = percentile(durations(st.serveRead, us), 0.99)
	var hits, misses, coalesced, epochs, queued, accepted, shed float64
	for i, a := range after.replicas {
		b := before.replicas[i]
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		coalesced += float64(a.Cache.Coalesced - b.Cache.Coalesced)
		epochs += float64(a.Cache.Epoch - b.Cache.Epoch)
		queued += float64(a.Queued - b.Queued)
		accepted += float64(a.Accepted - b.Accepted)
		shed += float64(a.Shed - b.Shed)
	}
	l["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	l["serve.cache_coalesced"] = coalesced
	l["serve.cache_epochs"] = epochs
	l["serve.queued_frac"] = ratio(queued, accepted)
	l["serve.shed"] = shed
	l["serve.response_bytes_per_row"] = ratio(float64(st.callBytes), float64(st.callRows))

	l["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	l["go.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	l["go.alloc_bytes_per_req"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), float64(ops))

	l["boot.graph_load_s"] = bt.GraphLoad.Seconds()
	l["boot.follower_open_s"] = bt.FollowerOpen.Seconds()
	l["boot.router_s"] = bt.Router.Seconds()
}

// lateness fills the generator's own lateness: how long after its due
// time each open-loop operation was actually sent.
func lateness(r *report, late []time.Duration) {
	r.layer["loadgen.late_ms.p99"] = percentile(durations(late, ms), 0.99)
	r.layer["loadgen.late_ms.max"] = percentile(durations(late, ms), 1)
}

// readLayers fills the client's read counts and the open-loop read
// latency quantiles, timed from the due time.
func readLayers(r *report, all *loopResult, open []time.Duration) {
	r.layer["client.read_attempted"] = float64(all.attempted)
	r.layer["client.read_failed"] = float64(all.failed)
	r.layer["client.read_p50_ms"] = percentile(durations(open, ms), 0.50)
	r.layer["client.read_p90_ms"] = percentile(durations(open, ms), 0.90)
	r.layer["client.read_p99_ms"] = percentile(durations(open, ms), 0.99)
}
