package metrics

import (
	"testing"
	"time"
)

// TestQuantileNearestRank pins the nearest-rank definition: the target
// rank is ceil(q*n), so the p95 of 10 samples is the 10th-smallest, not
// the 9th (the off-by-one the former floor-based target produced).
func TestQuantileNearestRank(t *testing.T) {
	// One sample per bucket: sample i lands in the bucket bounded by i+1,
	// so Quantile(q) == ceil(q*n) exposes the selected rank directly.
	tenDistinct := func() *Histogram {
		h := NewHistogram(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		for i := 0; i < 10; i++ {
			h.Observe(time.Duration(i + 1))
		}
		return h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want time.Duration
	}{
		{"p95 of 10 takes rank 10, not 9", tenDistinct(), 0.95, 10},
		{"p99 of 10 takes rank 10", tenDistinct(), 0.99, 10},
		{"p90 of 10 takes rank 9", tenDistinct(), 0.90, 9},
		{"p50 of 10 takes rank 5", tenDistinct(), 0.50, 5},
		{"p10 of 10 takes rank 1", tenDistinct(), 0.10, 1},
		{"p100 of 10 takes rank 10", tenDistinct(), 1.0, 10},
		{"tiny q takes rank 1", tenDistinct(), 0.0001, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%g) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantileSingleSample: with n=1, every quantile is that sample's
// bucket (ceil(q*1) = 1); the old floor target underflowed to the "at
// least rank 1" special case by luck, but must keep working.
func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram(10, 20)
	h.Observe(15)
	for _, q := range []float64{0.01, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 20 {
			t.Errorf("Quantile(%g) = %v, want 20", q, got)
		}
	}
}

// TestQuantileCeilDoesNotOvershoot: ceil must still clamp to n (floating
// point can push q*n fractionally above an integer).
func TestQuantileCeilDoesNotOvershoot(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	// 0.3*3 = 0.8999999... ceil 1; 1.0*3 exactly 3.
	if got := h.Quantile(0.3); got != 1 {
		t.Errorf("Quantile(0.3) = %v, want rank 1 bucket bound 1", got)
	}
	if got := h.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v, want rank 3 bucket bound 3", got)
	}
}

func TestDefaultLatencyHistogramRange(t *testing.T) {
	h := DefaultLatencyHistogram()
	bounds := h.bounds
	if len(bounds) == 0 {
		t.Fatal("no buckets")
	}
	if bounds[0] > 10*time.Microsecond {
		t.Errorf("first bound %v above a fast page read", bounds[0])
	}
	if last := bounds[len(bounds)-1]; last < 2*time.Second {
		t.Errorf("last bound %v cannot hold a long GC burst", last)
	}
	// A request absorbing a GC burst must not land in the overflow bucket.
	h.Observe(800 * time.Millisecond)
	if got := h.Quantile(1); got >= 5*time.Second {
		t.Errorf("800ms sample resolved to %v", got)
	}
}
