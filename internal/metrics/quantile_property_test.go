package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refQuantile is the sort-based nearest-rank reference: take the
// ceil(q*n)-th smallest sample and map it to its bucket upper bound (the
// overflow bucket reports the observed maximum, like the histogram).
func refQuantile(bounds []time.Duration, sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	if target > n {
		target = n
	}
	s := sorted[target-1]
	for _, b := range bounds {
		if s <= b {
			return b
		}
	}
	return sorted[n-1] // overflow bucket: the observed max
}

// TestQuantilePropertyAgainstSortReference locks in the nearest-rank
// fix on randomized inputs: for every histogram shape the harness uses
// and arbitrary sample sets spanning sub-bucket to overflow magnitudes,
// Histogram.Quantile must agree exactly with the sort-based reference at
// every probed quantile.
func TestQuantilePropertyAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	shapes := []struct {
		name  string
		build func() *Histogram
	}{
		{"read", func() *Histogram {
			return NewHistogram(10*time.Microsecond, 20*time.Microsecond, 40*time.Microsecond,
				80*time.Microsecond, 160*time.Microsecond, 320*time.Microsecond,
				640*time.Microsecond, 1280*time.Microsecond)
		}},
		{"latency", DefaultLatencyHistogram},
		{"queue-delay", DefaultQueueDelayHistogram},
		{"coarse", func() *Histogram { return NewHistogram(10, 100, 1000, 10000) }},
	}
	quantiles := []float64{0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for trial := 0; trial < 150; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		h := shape.build()
		bounds := h.bounds
		n := 1 + rng.Intn(400)
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform magnitudes from sub-nanosecond to ~100 s, with a
			// sprinkle of exact zeros and exact bucket bounds (the
			// boundary d <= bound is where off-by-ones hide).
			switch rng.Intn(8) {
			case 0:
				samples[i] = 0
			case 1:
				samples[i] = bounds[rng.Intn(len(bounds))]
			default:
				samples[i] = time.Duration(math.Pow(10, rng.Float64()*11)) // 1 ns .. ~100 s
			}
			h.Observe(samples[i])
		}
		sorted := append([]time.Duration(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range quantiles {
			got := h.Quantile(q)
			want := refQuantile(bounds, sorted, q)
			if got != want {
				t.Fatalf("trial %d (%s, n=%d): Quantile(%g) = %v, reference %v",
					trial, shape.name, n, q, got, want)
			}
		}
		// Probe a couple of random quantiles too, not just the canon.
		for k := 0; k < 3; k++ {
			q := rng.Float64()
			if q == 0 {
				continue
			}
			got, want := h.Quantile(q), refQuantile(bounds, sorted, q)
			if got != want {
				t.Fatalf("trial %d (%s, n=%d): Quantile(%g) = %v, reference %v",
					trial, shape.name, n, q, got, want)
			}
		}
	}
}

// TestQueueDelayZeroBucketInvariant extends the PR 3 zero-bucket test
// (metrics_test.go) with the structural invariant itself: the first
// bound IS exactly zero — not merely "zeros resolve to zero" — so the
// exact-zero queue-delay guarantee cannot be silently lost to a ladder
// reshuffle; and zeros never bleed into the first geometric bucket even
// when mixed with real delays at scale.
func TestQueueDelayZeroBucketInvariant(t *testing.T) {
	h := DefaultQueueDelayHistogram()
	bounds := h.bounds
	if len(bounds) == 0 {
		t.Fatal("queue-delay histogram has no buckets")
	}
	if bounds[0] != 0 {
		t.Fatalf("first bound = %v, want an exact zero bucket", bounds[0])
	}
	for i := 0; i < 1000; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0.001, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("all-zero delays: Quantile(%g) = %v, want exact 0", q, got)
		}
	}
	// 1000 zeros + 10 real delays: the median stays exactly zero, the
	// tail reports the real delay's bucket.
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Microsecond)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("mostly-zero delays: median = %v, want exact 0", got)
	}
	if got := h.Quantile(0.999); got <= 0 {
		t.Errorf("tail with real delays = %v, want positive", got)
	}
}
