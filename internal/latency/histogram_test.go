package latency

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketLayout(t *testing.T) {
	for b := 0; b < numBuckets; b++ {
		if got := bucketOf(bound(b)); got != b {
			t.Fatalf("bucketOf(bound(%d) = %v) = %d", b, bound(b), got)
		}
		if b == 0 {
			continue
		}
		if bound(b) <= bound(b-1) {
			t.Fatalf("bound(%d) = %v not above bound(%d) = %v", b, bound(b), b-1, bound(b-1))
		}
		if got := bucketOf(bound(b-1) + 1); got != b {
			t.Fatalf("bucketOf(bound(%d)+1) = %d, want %d", b-1, got, b)
		}
		if b < numBuckets-1 && 8*(bound(b)-bound(b-1)) > bound(b) {
			t.Fatalf("bucket %d spans (%v, %v], wider than 1/8 of its bound", b, bound(b-1), bound(b))
		}
	}
	if bound(0) != time.Duration(1)<<minExp || bound(numBuckets-2) != time.Duration(1)<<maxExp {
		t.Fatalf("first bound %v, last finite bound %v; want 2^%d ns and 2^%d ns", bound(0), bound(numBuckets-2), minExp, maxExp)
	}
	if bucketOf(-time.Second) != 0 || bucketOf(time.Duration(math.MaxInt64)) != numBuckets-1 {
		t.Fatal("out-of-range durations must clamp into the first and last buckets")
	}
}

// TestQuantileBracketsExact checks every quantile against nearest rank
// on the sorted samples, for a partial and a full window.
func TestQuantileBracketsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 37, Window} {
		var h Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform between 2µs and 60s.
			samples[i] = time.Duration(2e3 * math.Pow(3e7, rng.Float64()))
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0, 0.01, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			got, count := h.Quantile(q)
			exact := samples[max(int(math.Ceil(q*float64(n))), 1)-1]
			if count != n || got < exact || float64(got) > 1.125*float64(exact) {
				t.Errorf("n=%d q=%v: Quantile = %v over %d samples, exact %v", n, q, got, count, exact)
			}
		}
	}
}

func TestQuantileFollowsShift(t *testing.T) {
	var h Histogram
	if d, n := h.Quantile(0.95); d != 0 || n != 0 {
		t.Fatalf("empty histogram: Quantile = %v, %d; want 0, 0", d, n)
	}
	for i := 0; i < Window; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < Window; i++ {
		h.Observe(50 * time.Millisecond)
	}
	d, n := h.Quantile(0.95)
	if n != Window || d < 50*time.Millisecond || d > 50*time.Millisecond*9/8 {
		t.Fatalf("after the shift: p95 = %v over %d samples, want ~50ms over %d", d, n, Window)
	}
	if p0, _ := h.Quantile(0); p0 < 50*time.Millisecond {
		t.Fatalf("min = %v: a pre-shift observation survived a full window", p0)
	}
}

func TestConcurrentObserveKeepsWindow(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if _, n := h.Quantile(0.5); n != Window {
		t.Fatalf("after 4000 concurrent observations the window holds %d samples, want %d", n, Window)
	}
}

func TestNoAllocs(t *testing.T) {
	var h Histogram
	d := time.Duration(0)
	if a := testing.AllocsPerRun(1000, func() { d += 7919; h.Observe(d) }); a != 0 {
		t.Errorf("Observe: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Quantile(0.99) }); a != 0 {
		t.Errorf("Quantile: %v allocs, want 0", a)
	}
}

func BenchmarkObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * 997)
	}
}

func BenchmarkQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < Window; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDuration, _ = h.Quantile(0.99)
	}
}

var sinkDuration time.Duration
