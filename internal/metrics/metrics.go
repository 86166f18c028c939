// Package metrics provides the counters, latency accumulators and
// histograms shared by the device simulator, the FTLs and the experiment
// harness.
//
// All types are plain values with useful zero states so they can be
// embedded directly in simulator structs without constructors.
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter uint64

// Inc adds one to the counter.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Latency accumulates a total duration together with the number of
// contributing operations, so both totals and means can be reported.
type Latency struct {
	Total time.Duration
	Ops   uint64
}

// Observe adds one operation of duration d.
func (l *Latency) Observe(d time.Duration) {
	l.Total += d
	l.Ops++
}

// Mean returns the average duration per operation, or zero when empty.
func (l Latency) Mean() time.Duration {
	if l.Ops == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Ops)
}

// Enhancement returns the relative improvement of measured against a
// baseline total: (baseline-measured)/baseline. Positive values mean
// "measured is faster". Zero baseline yields zero.
func Enhancement(baseline, measured time.Duration) float64 {
	if baseline == 0 {
		return 0
	}
	return float64(baseline-measured) / float64(baseline)
}

// Histogram is a fixed-bucket latency histogram. The zero value is not
// usable; build one with NewHistogram.
type Histogram struct {
	bounds []time.Duration // len(bounds) = len(counts)-1; counts[i] holds d <= bounds[i]
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. A final overflow bucket is added automatically.
func NewHistogram(bounds ...time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// DefaultLatencyHistogram covers per-request completion latencies: a
// geometric ladder from 10 µs to ~5 s with four steps per octave
// (x1, x1.25, x1.5, x1.75 per doubling), so quantile upper bounds carry
// at most ~25% resolution error. Requests span single fast-page reads
// (~25 µs) up to writes that absorb a whole garbage-collection burst
// (hundreds of page copies plus multi-ms erases), so the range is much
// wider than a single page op's.
func DefaultLatencyHistogram() *Histogram {
	bounds := make([]time.Duration, 0, 80)
	for b := 10 * time.Microsecond; b <= 5*time.Second; b *= 2 {
		bounds = append(bounds, b, b*5/4, b*3/2, b*7/4)
	}
	return NewHistogram(bounds...)
}

// DefaultQueueDelayHistogram covers host queueing delays: the time a
// request waits between issue (or open-loop arrival) and the device
// starting its first operation. A leading zero bucket makes an idle host
// report exact-zero percentiles (a queue depth of 1 never queues), and
// the geometric ladder extends well past DefaultLatencyHistogram's range
// because an open-loop backlog can grow to many times any single
// request's service time.
func DefaultQueueDelayHistogram() *Histogram {
	bounds := make([]time.Duration, 0, 96)
	bounds = append(bounds, 0)
	for b := 10 * time.Microsecond; b <= 80*time.Second; b *= 2 {
		bounds = append(bounds, b, b*5/4, b*3/2, b*7/4)
	}
	return NewHistogram(bounds...)
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if d <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observed samples.
//
//flashvet:testonly perfbench (a separate module) checks its captured latencies against it
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the total of all observed samples.
//
//flashvet:testonly perfbench (a separate module) checks its captured latencies against it
func (h *Histogram) Sum() time.Duration { return h.sum }

// Min returns the smallest observed sample (zero when empty).
//
//flashvet:testonly harness replay tests check that no recorded latency is zero or negative
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest observed sample (zero when empty).
//
//flashvet:testonly harness queueing tests check exact largest queue delays
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper bounds; the overflow bucket reports the observed max.
//
// The target rank is the nearest-rank ceil(q*n): truncating instead (as
// this function once did) returned rank floor(q*n), so e.g. the p95 of 10
// samples came from rank 9 — the p90 — instead of rank 10.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	if target > h.total {
		target = h.total
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}
