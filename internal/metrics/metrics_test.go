package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("value = %d, want 5", c.Value())
	}
}

func TestLatency(t *testing.T) {
	var l Latency
	if l.Mean() != 0 {
		t.Error("empty mean should be zero")
	}
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	if got := l.Mean(); got != 20*time.Millisecond {
		t.Errorf("mean = %v, want 20ms", got)
	}
	if l.Ops != 2 || l.Total != 40*time.Millisecond {
		t.Errorf("latency = %+v, want 2 ops totalling 40ms", l)
	}
}

func TestEnhancement(t *testing.T) {
	if got := Enhancement(100, 80); got != 0.2 {
		t.Errorf("enhancement = %v, want 0.2", got)
	}
	if got := Enhancement(100, 120); got != -0.2 {
		t.Errorf("regression = %v, want -0.2", got)
	}
	if got := Enhancement(0, 50); got != 0 {
		t.Errorf("zero baseline = %v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 20, 40)
	for _, d := range []time.Duration{5, 15, 35, 100} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 5 || h.Max() != 100 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 155 {
		t.Errorf("sum = %v", h.Sum())
	}
	if len(h.bounds) != 3 || len(h.counts) != 4 {
		t.Fatalf("buckets = %d bounds %d counts", len(h.bounds), len(h.counts))
	}
	for _, c := range h.counts {
		if c != 1 {
			t.Errorf("counts = %v, want all ones", h.counts)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 40)
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(35)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want bucket bound 10", got)
	}
	if got := h.Quantile(0.99); got != 40 {
		t.Errorf("p99 = %v, want bucket bound 40", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q0 = %v, want 0", got)
	}
	if got := h.Quantile(2); got != 40 {
		t.Errorf("q>1 clamps to max bucket, got %v", got)
	}
	empty := NewHistogram(10)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestHistogramOverflowQuantileUsesMax(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(500)
	if got := h.Quantile(1); got != 500 {
		t.Errorf("overflow quantile = %v, want observed max 500", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-ascending bounds")
		}
	}()
	NewHistogram(10, 10)
}

// Property: histogram sum/count always match direct accumulation.
func TestPropertyHistogramTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := DefaultLatencyHistogram()
		var sum time.Duration
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(2000)) * time.Microsecond
			h.Observe(d)
			sum += d
		}
		return h.Count() == uint64(n) && h.Sum() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "trace", "value")
	tb.AddRow("media", 0.1856)
	tb.AddRow("websql", 3.21e7)
	out := tb.String()
	for _, want := range []string{"Figure X", "media", "0.1856", "3.210e+07", "| trace "} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.1856:  "0.1856",
		3.21e7:  "3.210e+07",
		-4.2e-5: "-4.200e-05",
		12.5:    "12.5",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestDefaultQueueDelayHistogramZeroBucket: the queue-delay histogram
// leads with a zero bucket so a host that never queues (queue depth 1)
// reports exact-zero percentiles instead of the first ladder bound.
func TestDefaultQueueDelayHistogramZeroBucket(t *testing.T) {
	h := DefaultQueueDelayHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("all-zero samples: q%.2f = %v, want 0", q, got)
		}
	}
	h.Observe(30 * time.Second) // open-loop backlogs exceed the latency ladder
	if got := h.Quantile(1); got < 30*time.Second {
		t.Errorf("q1 = %v, want >= 30s (ladder must cover open-loop backlogs)", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("median = %v, want 0 (10 of 11 samples are zero)", got)
	}
}
