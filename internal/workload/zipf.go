package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// The zipf sampler's table sizes and guard.
const (
	// zipfTableBins is K: values below it are decided by the table, and
	// larger ones by the stdlib sampler.
	zipfTableBins = 4096
	// zipfGuideCells is M, the number of equal cells of [0, 1) in the
	// guide array. A power of two, so r*M is exact.
	zipfGuideCells = 1 << 14
	// zipfGuard is δ: a draw whose r lies within it of one of its
	// region's edges goes to the stdlib. Where the stdlib's own rounding
	// puts an edge differs from the table by under 2e-15 in r from skew
	// 1.01 up, and by about 2e-14 at the smallest tabulated skew.
	zipfGuard = 1e-11
	// zipfMinTableSkew is the smallest tabulated skew. The stdlib's
	// rounding in r grows as 1/(s−1), to about 1e-11 at s = 1+1e-6, so
	// nearer skews draw from the stdlib alone.
	zipfMinTableSkew = 1.001
	// zipfMinSkew is the smallest skew newZipf accepts. Nearer 1 the
	// stdlib draws past its domain: over n = 1000 from seed 1, 7,136 of
	// 200,000 draws at s = 1+2^-52 were at least n (the largest 1096),
	// and 20 of 2,000,000 at s = 1+1e-12. At this floor
	// TestZipfFloorStaysInDomain finds none.
	zipfMinSkew = 1 + 1e-9
)

// zipfSearch marks a guide entry that is not a direct accept: the entry
// less zipfSearch is the region at the top of its cell.
const zipfSearch = 1 << 15

// The largest region index, 2*zipfTableBins, must fit beside the mark.
const _ = uint16(zipfSearch + 2*zipfTableBins)

// zipf draws skewed indices in [0, n): on every call it returns the same
// value, and consumes the same draws of rng, as
// rand.NewZipf(rng, s, 1, n-1).Uint64 would, without that sampler's
// per-draw log and exp for most draws.
//
// rand.Zipf (Hörmann and Derflinger's rejection-inversion) maps each
// r = rng.Float64() to ur = hxm + r·(h(½) − 1 − hxm), x = hinv(ur) and
// k = ⌊x+½⌋. It returns k when k − x ≤ squeeze or ur ≥ h(k+½) − (k+1)^−s,
// and otherwise draws again. In exact arithmetic each step is monotone
// in r, so k is returned for r in an interval whose ends, like the
// redraw region at its top, have a closed form in h. zipfEdges computes
// these edges for k < zipfTableBins, and the guide array resolves most
// draws in one load. A draw is decided from the table only when r lies
// more than zipfGuard from both edges of its region. The stdlib's
// rounding moves its own decisions by far less than that, so it would
// decide the draw the same way. Every other draw goes to a rand.Zipf:
// one in a guard band, at k >= zipfTableBins, or from a sampler with no
// table. That sampler's source replays the draw's r once and then reads
// rng, so the stdlib computes the draw, and its redraws, itself.
type zipf struct {
	rng *rand.Rand
	// guide[c] is k when every r in cell c accepts k, and otherwise
	// zipfSearch plus the region at the top of the cell.
	guide *[zipfGuideCells]uint16
	// edges[0] = 1; region i is (edges[i+1], edges[i]]. Region 2k+1
	// accepts k, region 2k rejects r (the redraw region of k), and the
	// last region, above the sentinel -1, is left to std.
	edges []float64

	std    *rand.Zipf
	replay *replaySource
}

// newZipf builds a Zipf sampler over [0, n) with a finite skew s of at
// least zipfMinSkew (larger is more skewed). Panics on invalid
// parameters to surface config bugs early.
func newZipf(rng *rand.Rand, s float64, n uint64) zipf {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	// rand.Zipf never returns for a NaN or infinite skew, and draws past
	// the domain just above 1.
	if !(s >= zipfMinSkew) || math.IsInf(s, 1) {
		panic(fmt.Sprintf("workload: zipf skew must be finite and at least 1+1e-9, got %g", s))
	}
	replay := &replaySource{rng: rng}
	z := zipf{
		rng:    rng,
		edges:  zipfEdges(s, n),
		std:    rand.NewZipf(rand.New(replay), s, 1, n-1),
		replay: replay,
	}
	z.guide = zipfGuide(z.edges)
	return z
}

// draw returns the next value; most draws end at the guide.
func (z *zipf) draw() uint64 {
	r := z.rng.Float64()
	if g := z.guide[int(r*zipfGuideCells)]; g < zipfSearch {
		return uint64(g)
	}
	return z.search(r)
}

// search decides a draw, and its redraws, from the edges when the guide
// cell of r does not.
func (z *zipf) search(r float64) uint64 {
	e := z.edges
	for {
		i := int(z.guide[int(r*zipfGuideCells)])
		if i < zipfSearch {
			return uint64(i)
		}
		i -= zipfSearch
		for r <= e[i+1] {
			i++
		}
		if r-e[i+1] <= zipfGuard || e[i]-r <= zipfGuard || i == len(e)-2 {
			return z.fallback(r)
		}
		if i&1 != 0 {
			return uint64(i >> 1)
		}
		r = z.rng.Float64()
	}
}

// fallback has the stdlib decide the draw whose Float64 was r.
func (z *zipf) fallback(r float64) uint64 {
	z.replay.next, z.replay.armed = int64(r*(1<<63)), true
	return z.std.Uint64()
}

// zipfEdges returns the edges of the sampler's regions (see zipf),
// computed with rand.Zipf's own formulas for parameter s, v = 1 and
// imax = n-1. Tabulation stops early at the first k whose edges are not
// finite and ordered.
func zipfEdges(s float64, n uint64) []float64 {
	bins := int(min(n, zipfTableBins))
	if s < zipfMinTableSkew {
		bins = 0
	}
	oneminusQ := 1 - s
	oneminusQinv := 1 / oneminusQ
	h := func(x float64) float64 { return math.Exp(oneminusQ*math.Log(1+x)) * oneminusQinv }
	hinv := func(x float64) float64 { return math.Exp(oneminusQinv*math.Log(oneminusQ*x)) - 1 }
	hxm := h(float64(n-1) + 0.5)
	span := h(0.5) - 1 - hxm
	squeeze := 1 - hinv(h(1.5)-math.Exp(-s*math.Log(2)))
	// toR maps ur back to r: ur falls as r rises, since span < 0.
	toR := func(ur float64) float64 { return (ur - hxm) / span }

	e := make([]float64, 1, 2*bins+2)
	e[0] = 1
	for k := range bins {
		fk := float64(k)
		hk := h(fk + 0.5)
		lo := toR(hk)
		acc := min(toR(min(h(fk-squeeze), hk-math.Exp(-math.Log(fk+1)*s))), e[len(e)-1])
		if !(-1 < lo && lo < e[len(e)-1] && lo <= acc) {
			break
		}
		e = append(e, acc, lo)
	}
	return append(e, -1)
}

// zipfGuide builds the guide array over edges.
func zipfGuide(e []float64) *[zipfGuideCells]uint16 {
	g := new([zipfGuideCells]uint16)
	i := 0
	for c := zipfGuideCells - 1; c >= 0; c-- {
		top, bottom := float64(c+1)/zipfGuideCells, float64(c)/zipfGuideCells
		for !(e[i+1] < top) {
			i++
		}
		if i&1 != 0 && e[i+1]+zipfGuard < bottom && top+zipfGuard <= e[i] {
			g[c] = uint16(i >> 1)
		} else {
			g[c] = uint16(zipfSearch + i)
		}
	}
	return g
}

// replaySource is the stdlib sampler's source: when armed it returns
// next once, so the stdlib reads again the r the table left open, and
// otherwise it forwards to the generator's rng.
type replaySource struct {
	rng   *rand.Rand
	next  int64
	armed bool
}

func (s *replaySource) Int63() int64 {
	if s.armed {
		s.armed = false
		return s.next
	}
	return s.rng.Int63()
}

// Seed is never called: rand.Zipf only reads its source.
func (s *replaySource) Seed(int64) { panic("workload: zipf replay source reseeded") }
