// Package latency is the one latency tracker the daemon, the router and
// the ingest engine share: a histogram over the most recent
// observations, cheap enough to update on every request and read as
// nearest-rank quantiles.
package latency

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Window is how many of the most recent observations a Histogram counts.
const Window = 1024

// The bucket layout is log-linear: everything up to 2^minExp ns (≈1µs)
// shares the first bucket, everything above 2^maxExp ns (≈69s) the
// last, and every power of two in between is split into 1<<subBits
// equal buckets, each at most 1/8 as wide as its upper bound.
const (
	subBits    = 3
	minExp     = 10
	maxExp     = 36
	numBuckets = 1 + (maxExp-minExp)<<subBits + 1
)

// Histogram counts the last Window durations passed to Observe. The zero
// value is ready to use and all methods are safe for concurrent use.
type Histogram struct {
	seen atomic.Uint64 // observations so far; the next one takes slot seen % Window
	// ring[i] is 1 + the bucket of the observation in slot i (0: empty),
	// so the observation an Observe call overwrites leaves its bucket
	// in O(1).
	ring   [Window]atomic.Uint32
	counts [numBuckets]atomic.Int32
}

// Observe records d, evicting the observation made Window calls
// earlier. It takes no lock and does not allocate.
func (h *Histogram) Observe(d time.Duration) {
	b := bucketOf(d)
	// Count before publishing into the ring: whoever evicts this
	// observation then always decrements a count already raised, so no
	// count is ever negative.
	h.counts[b].Add(1)
	slot := (h.seen.Add(1) - 1) % Window
	if old := h.ring[slot].Swap(uint32(b) + 1); old != 0 {
		h.counts[old-1].Add(-1)
	}
}

// Quantile returns the nearest-rank q-quantile of the window (the upper
// bound of the bucket holding the ⌈q·n⌉-th smallest observation) and
// the window's sample count n. Above the first bucket and below the
// last, the result is at least the exact quantile and at most 1/8 more.
// An empty window returns 0, 0.
func (h *Histogram) Quantile(q float64) (time.Duration, int) {
	var counts [numBuckets]int32
	n := 0
	for b := range h.counts {
		counts[b] = h.counts[b].Load()
		n += int(counts[b])
	}
	if n == 0 {
		return 0, 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	b, cum := 0, int(counts[0])
	for cum < rank {
		b++
		cum += int(counts[b])
	}
	return bound(b), n
}

// bucketOf returns the bucket holding d.
func bucketOf(d time.Duration) int {
	switch {
	case d <= 1<<minExp:
		return 0
	case d > 1<<maxExp:
		return numBuckets - 1
	}
	v := uint64(d) - 1 // d is in (2^exp, 2^(exp+1)], so v is in [2^exp, 2^(exp+1))
	exp := bits.Len64(v) - 1
	sub := int(v>>(exp-subBits)) & (1<<subBits - 1)
	return 1 + (exp-minExp)<<subBits + sub
}

// bound returns the inclusive upper bound of bucket b; the last bucket
// is unbounded.
func bound(b int) time.Duration {
	switch b {
	case 0:
		return 1 << minExp
	case numBuckets - 1:
		return math.MaxInt64
	}
	exp, sub := minExp+(b-1)>>subBits, (b-1)&(1<<subBits-1)
	return time.Duration(1<<subBits+sub+1) << (exp - subBits)
}

// Summary is the shape /debug/stats reports a Histogram in: the window's
// sample count and its p50 and p99 in microseconds.
type Summary struct {
	Samples int     `json:"samples"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

// Summary returns the window's Summary.
func (h *Histogram) Summary() Summary {
	p50, n := h.Quantile(0.50)
	p99, _ := h.Quantile(0.99)
	return Summary{
		Samples: n,
		P50US:   float64(p50) / float64(time.Microsecond),
		P99US:   float64(p99) / float64(time.Microsecond),
	}
}
