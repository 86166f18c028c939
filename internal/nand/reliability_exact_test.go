package nand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refBER is the error rate reliabilityPenalty samples for a read of page
// p (page index page) of block blk at the device's current time.
func refBER(d *Device, blk *blockState, p PPN, page int) float64 {
	r := d.rel
	rber := r.layerBER[page] * (1 + r.cfg.PECycleFactor*float64(blk.eraseCount))
	if r.cfg.RetentionFactor > 0 {
		if age := d.now - r.progTime[p]; age > 0 {
			mult := 1 + r.cfg.RetentionFactor*age.Seconds()
			if r.cfg.RetentionCap > 0 && mult > r.cfg.RetentionCap {
				mult = r.cfg.RetentionCap
			}
			rber *= mult
		}
	}
	return rber
}

// refPenalty is reliabilityPenalty without its cell table: every read
// takes the logarithm of its draw. It is the oracle the table path must
// reproduce bit for bit.
func refPenalty(d *Device, b BlockID, blk *blockState, p PPN, page int) time.Duration {
	r := d.rel
	sampled := refBER(d, blk, p, page) * -math.Log(r.nextFloat())
	if sampled <= r.cfg.ECCCorrectBER {
		return 0
	}
	q := (sampled - r.cfg.ECCCorrectBER) / r.cfg.RetryStepBER
	r.stats.Retried++
	if !(q < float64(r.cfg.MaxRetries)) {
		steps := r.cfg.MaxRetries
		r.stats.Steps += uint64(steps)
		r.stats.Uncorrectable++
		if r.cfg.UncorrectableLimit > 0 {
			r.uncorr[b]++
			if r.uncorr[b] >= r.cfg.UncorrectableLimit {
				r.flagRetire(b)
			}
		}
		return time.Duration(steps)*(d.readCost[page]+r.cfg.ECCDecodeLatency) + r.cfg.UncorrectablePenalty
	}
	steps := int(q) + 1
	r.stats.Steps += uint64(steps)
	return time.Duration(steps) * (d.readCost[page] + r.cfg.ECCDecodeLatency)
}

// tableDecides reports whether the cell table settles r's next read at
// error rate rber, that is whether reliabilityPenalty will skip the
// logarithm. It does not advance r.
func tableDecides(r *relState, rber float64) bool {
	peek := *r
	c := negLogCells[negLogCellOf(peek.nextFloat())]
	return r.retrySteps(rber*c.lo) == r.retrySteps(rber*c.hi)
}

// sameRelState reports whether two devices' reliability models hold the
// same PRNG state, stats, uncorrectable counts and retirement state.
func sameRelState(a, b *relState) bool {
	return a.rng == b.rng && a.stats == b.stats &&
		slices.Equal(a.uncorr, b.uncorr) && slices.Equal(a.flags, b.flags) &&
		slices.Equal(a.retireQ, b.retireQ) && a.qHead == b.qHead && a.qLen == b.qLen
}

// namedConfig is a reliability config with a name for test messages.
type namedConfig struct {
	name string
	cfg  ReliabilityConfig
}

// cellEdgeConfigs returns configs at rber = 1 whose thresholds sit on
// cell edges of negLogCells, where the brackets of the cells on both
// sides straddle them:
//   - halving: clean up to u = 1/2, one more retry step at each halving
//     of u down to 2^-10, uncorrectable below 2^-11 (the top of cell 0);
//   - nearOne: clean in the last cell, one step in the cell below it,
//     uncorrectable below that.
func cellEdgeConfigs() []namedConfig {
	base := ReliabilityConfig{
		Enabled:              true,
		BaseBER:              1,
		ECCDecodeLatency:     10 * time.Microsecond,
		UncorrectablePenalty: time.Millisecond,
		UncorrectableLimit:   64,
	}
	halving, nearOne := base, base
	halving.ECCCorrectBER, halving.RetryStepBER, halving.MaxRetries = math.Ln2, math.Ln2, 10
	nearOne.ECCCorrectBER = -math.Log(2047.0 / 2048)
	nearOne.RetryStepBER = -math.Log(2046.0/2048) - nearOne.ECCCorrectBER
	nearOne.MaxRetries = 1
	return []namedConfig{{"halving", halving}, {"nearOne", nearOne}}
}

// TestReliabilityFastPathExact drives reliabilityPenalty and refPenalty
// over the same read sequence on twin devices: per-read cost, stats,
// uncorrectable counts and retirement flags must agree exactly. For the
// two profiles and the two fixed-outcome configs, blocks carry mixed
// erase counts and pages span ages on both sides of every retention
// cap, so rber sweeps across the ECC threshold. The cell-edge configs
// put every threshold on a cell edge. Both paths must run: some reads
// settled by the table, some by the logarithm.
func TestReliabilityFastPathExact(t *testing.T) {
	const readsPerConfig = 1 << 17 // 14 configs: 1.8 M reads
	low, err := ReliabilityProfileByName("low")
	if err != nil {
		t.Fatal(err)
	}
	high, err := ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	type config struct {
		name     string
		retCap   float64
		cfg      ReliabilityConfig
		bothWays bool // the config must take both paths
	}
	var configs []config
	for _, base := range []namedConfig{
		{"low", low},
		{"high", high},
		{"neverRetried", neverRetried()},
		{"alwaysUncorrectable", alwaysUncorrectable()},
	} {
		for _, retCap := range []float64{0, 1, 1.5} {
			rc := base.cfg
			rc.RetentionCap = retCap
			if rc.RetentionFactor == 0 {
				rc.RetentionFactor = 0.01
			}
			configs = append(configs, config{base.name, retCap, rc, base.name == "high"})
		}
	}
	for _, edge := range cellEdgeConfigs() {
		configs = append(configs, config{edge.name, 0, edge.cfg, true})
	}
	cfg := testConfig()
	total, logged := 0, 0
	for _, c := range configs {
		fast, ref := MustNewDevice(cfg), MustNewDevice(cfg)
		for _, d := range []*Device{fast, ref} {
			if err := d.SetReliability(c.cfg, 11); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(5))
		// Program every page at a spread of times, on blocks with
		// erase counts from 0 to 300.
		for b := 0; b < cfg.TotalBlocks(); b++ {
			wear := uint32(rng.Intn(301))
			for page := 0; page < cfg.PagesPerBlock; page++ {
				at := time.Duration(rng.Int63n(int64(60 * time.Second)))
				p := cfg.PPNForBlockPage(BlockID(b), page)
				for _, d := range []*Device{fast, ref} {
					d.blocks[b].eraseCount = wear
					d.now = at
					if _, err := d.Program(p, OOB{LPN: uint64(p)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		now := time.Duration(0)
		logReads := 0
		for i := 0; i < readsPerConfig; i++ {
			now += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			p := PPN(rng.Int63n(int64(cfg.TotalPages())))
			b, page := cfg.SplitPPN(p)
			fast.now, ref.now = now, now
			if !tableDecides(fast.rel, refBER(fast, &fast.blocks[b], p, page)) {
				logReads++
			}
			got := fast.reliabilityPenalty(b, &fast.blocks[b], p, page)
			want := refPenalty(ref, b, &ref.blocks[b], p, page)
			if got != want {
				t.Fatalf("%s cap %g read %d (page %d, age %v): cost %v, reference %v",
					c.name, c.retCap, i, p, now-fast.rel.progTime[p], got, want)
			}
		}
		total += readsPerConfig
		logged += logReads
		if !sameRelState(fast.rel, ref.rel) {
			t.Errorf("%s cap %g: state differs from the reference: stats %+v, reference %+v",
				c.name, c.retCap, fast.rel.stats, ref.rel.stats)
		}
		if c.bothWays && (logReads == 0 || logReads == readsPerConfig) {
			t.Errorf("%s cap %g: %d of %d reads took the logarithm, want some but not all",
				c.name, c.retCap, logReads, readsPerConfig)
		}
	}
	if total < 1_000_000 {
		t.Fatalf("compared %d reads, want at least 1 M", total)
	}
	t.Logf("%d of %d reads took the logarithm", logged, total)
}

// TestReliabilityCellBrackets checks every cell's bracket against -math.Log
// of the draws it can hold: at each cell edge, at the edge's float
// neighbours, at the smallest draw 2^-54 and the largest, 1, and at
// 2 M draws of nextFloat. Each u must index its own cell, and that
// cell's bracket must hold -math.Log(u).
func TestReliabilityCellBrackets(t *testing.T) {
	check := func(u float64) {
		t.Helper()
		if u < 0x1p-54 || u > 1 {
			return // no draw
		}
		i := negLogCellOf(u)
		if lo, hi := float64(i)/negLogCellCount, float64(i+1)/negLogCellCount; u < lo || u >= hi && i != negLogCellCount-1 {
			t.Fatalf("u = %v indexes cell %d, which spans [%v, %v)", u, i, lo, hi)
		}
		if x, c := -math.Log(u), negLogCells[i]; !(c.lo <= x && x <= c.hi) {
			t.Fatalf("u = %v: -ln u = %v outside cell %d's bracket [%v, %v]", u, x, i, c.lo, c.hi)
		}
	}
	for j := 0; j <= negLogCellCount; j++ {
		e := float64(j) / negLogCellCount
		check(math.Nextafter(e, 0))
		check(e)
		check(math.Nextafter(e, 1))
	}
	for _, u := range []float64{0x1p-54, math.Nextafter(0x1p-54, 1), 1 - 0x1p-53, 1} {
		check(u)
	}
	for i := range negLogCells {
		if c := negLogCells[i]; !(c.lo < c.hi) {
			t.Fatalf("cell %d: empty bracket [%v, %v]", i, c.lo, c.hi)
		}
	}
	r := relState{rng: 3}
	for range 2_000_000 {
		check(r.nextFloat())
	}
}

// stateBefore returns the splitmix64 state from which relState's next
// draw mixes to z, by running nextFloat's finalizer backwards.
func stateBefore(z uint64) uint64 {
	// inverse returns the inverse of an odd a modulo 2^64 by Newton's
	// iteration, which doubles the correct low bits from 3 each step.
	inverse := func(a uint64) uint64 {
		x := a
		for range 5 {
			x *= 2 - a*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94D049BB133111EB)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xBF58476D1CE4E5B9)
	z ^= z>>30 ^ z>>60
	return z - 0x9E3779B97F4A7C15
}

// TestReliabilityPenaltyAtDrawEnds reads a fresh page at the two ends of
// the draw range, u = 1 (-ln u = 0: every read is clean) and u = 2^-54
// (-ln u = 37.4, the largest variate), through the table path and the
// oracle. At 2^-54 the retry quotient of alwaysUncorrectable is about
// 3.7e19, past the int range: the read must be uncorrectable.
func TestReliabilityPenaltyAtDrawEnds(t *testing.T) {
	high, err := ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	for _, c := range []struct {
		namedConfig
		atSmallest ReliabilityStats // the stats after one read at u = 2^-54
	}{
		// Page 0 is on layer 0, so rber = 1e-3: 1e-3*37.43 = 0.0374,
		// and (0.0374-0.003)/0.004 = 8.6 takes 9 steps.
		{namedConfig{"high", high}, ReliabilityStats{Retried: 1, Steps: 9}},
		{namedConfig{"alwaysUncorrectable", alwaysUncorrectable()}, ReliabilityStats{Retried: 1, Steps: 3, Uncorrectable: 1}},
	} {
		for _, end := range []struct {
			z uint64 // the mixed value drawn
			u float64
		}{{^uint64(0), 1}, {0, 0x1p-54}} {
			var costs [2]time.Duration
			var devs [2]*Device
			for k, penalty := range []func(*Device, BlockID, *blockState, PPN, int) time.Duration{
				(*Device).reliabilityPenalty, refPenalty,
			} {
				d := MustNewDevice(cfg)
				if err := d.SetReliability(c.cfg, 1); err != nil {
					t.Fatal(err)
				}
				p := cfg.PPNForBlockPage(0, 0)
				if _, err := d.Program(p, OOB{}); err != nil {
					t.Fatal(err)
				}
				d.rel.rng = stateBefore(end.z)
				if peek := *d.rel; peek.nextFloat() != end.u {
					t.Fatalf("state before %#x does not draw %v", end.z, end.u)
				}
				costs[k], devs[k] = penalty(d, 0, &d.blocks[0], p, 0), d
			}
			if costs[0] != costs[1] || !sameRelState(devs[0].rel, devs[1].rel) {
				t.Errorf("%s at u = %v: cost %v stats %+v, oracle %v stats %+v",
					c.name, end.u, costs[0], devs[0].rel.stats, costs[1], devs[1].rel.stats)
			}
			want := c.atSmallest
			if end.u == 1 {
				want = ReliabilityStats{}
			}
			if got := devs[0].rel.stats; got != want {
				t.Errorf("%s at u = %v: stats %+v, want %+v", c.name, end.u, got, want)
			}
		}
	}
}

// TestReliabilityHugeRetryQuotient pins reads whose retry quotient is
// at least 2^63: alwaysUncorrectable reaches it for every draw below
// about e^-9.2. Each of 200,000 reads of one fresh page must be
// uncorrectable, with MaxRetries steps and the uncorrectable penalty,
// through the table path and the oracle alike.
func TestReliabilityHugeRetryQuotient(t *testing.T) {
	cfg := testConfig()
	rc := alwaysUncorrectable()
	rc.UncorrectableLimit = 0
	fast, ref := MustNewDevice(cfg), MustNewDevice(cfg)
	p := cfg.PPNForBlockPage(0, 0)
	for _, d := range []*Device{fast, ref} {
		if err := d.SetReliability(rc, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Program(p, OOB{}); err != nil {
			t.Fatal(err)
		}
	}
	const reads = 200_000
	want := time.Duration(rc.MaxRetries)*(fast.readCost[0]+rc.ECCDecodeLatency) + rc.UncorrectablePenalty
	huge := 0
	for i := range reads {
		peek := *ref.rel
		if (-math.Log(peek.nextFloat())-rc.ECCCorrectBER)/rc.RetryStepBER >= 0x1p63 {
			huge++
		}
		if got := fast.reliabilityPenalty(0, &fast.blocks[0], p, 0); got != want {
			t.Fatalf("read %d: cost %v, want %v", i, got, want)
		}
		if got := refPenalty(ref, 0, &ref.blocks[0], p, 0); got != want {
			t.Fatalf("read %d: oracle cost %v, want %v", i, got, want)
		}
	}
	if huge == 0 {
		t.Fatal("no read had a quotient of 2^63 or more")
	}
	wantStats := ReliabilityStats{Retried: reads, Steps: reads * uint64(rc.MaxRetries), Uncorrectable: reads}
	if fast.rel.stats != wantStats || ref.rel.stats != wantStats {
		t.Errorf("stats %+v, oracle %+v, want %+v", fast.rel.stats, ref.rel.stats, wantStats)
	}
}

// FuzzReliabilityDraw compares reliabilityPenalty with refPenalty on 64
// reads of one page, for any page BER, erase count, page age, ECC
// threshold, retry step, MaxRetries, retention cap and PRNG seed that
// Validate accepts: subnormal and huge rates included. Validate rejects
// NaN and infinite rates, so the corpus inputs that hold them end at
// that check. Every read's cost, and the stats, PRNG state and
// retirement state after the reads, must be equal.
func FuzzReliabilityDraw(f *testing.F) {
	f.Add(1e-3, uint32(100), int64(5*time.Second), 3e-3, 4e-3, 12, 1.5, int64(11))
	f.Add(3e-4, uint32(0), int64(0), 3e-3, 2e-3, 8, 0.0, int64(1))
	f.Add(1.0, uint32(0), int64(0), 1e-18, 1e-18, 3, 0.0, int64(7))
	f.Add(1.0, uint32(0), int64(0), math.Ln2, math.Ln2, 10, 0.0, int64(3))
	cfg := testConfig()
	f.Fuzz(func(t *testing.T, ber float64, erases uint32, age int64, ecc, step float64, maxRetries int, retCap float64, seed int64) {
		rc := ReliabilityConfig{
			Enabled:              true,
			BaseBER:              ber,
			PECycleFactor:        0.01,
			RetentionFactor:      0.01,
			RetentionCap:         retCap,
			ECCCorrectBER:        ecc,
			RetryStepBER:         step,
			MaxRetries:           maxRetries,
			ECCDecodeLatency:     10 * time.Microsecond,
			UncorrectablePenalty: 2 * time.Millisecond,
			UncorrectableLimit:   4,
		}
		if rc.Validate() != nil {
			return
		}
		fast, ref := MustNewDevice(cfg), MustNewDevice(cfg)
		p := cfg.PPNForBlockPage(1, 0)
		for _, d := range []*Device{fast, ref} {
			if err := d.SetReliability(rc, seed); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Program(p, OOB{}); err != nil {
				t.Fatal(err)
			}
			d.blocks[1].eraseCount = erases
			d.now = time.Duration(age)
		}
		for i := range 64 {
			got := fast.reliabilityPenalty(1, &fast.blocks[1], p, 0)
			want := refPenalty(ref, 1, &ref.blocks[1], p, 0)
			if got != want {
				t.Fatalf("read %d: cost %v, reference %v", i, got, want)
			}
		}
		if !sameRelState(fast.rel, ref.rel) {
			t.Fatalf("state differs: stats %+v rng %#x, reference %+v rng %#x",
				fast.rel.stats, fast.rel.rng, ref.rel.stats, ref.rel.rng)
		}
	})
}
