package nand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refPenalty is reliabilityPenalty without its clean-read shortcut:
// every read takes the logarithm of its draw. It is the oracle the
// shortcut must reproduce bit for bit.
func refPenalty(d *Device, b BlockID, blk *blockState, p PPN, page int) time.Duration {
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
	sampled := rber * -math.Log(r.nextFloat())
	if sampled <= r.cfg.ECCCorrectBER {
		return 0
	}
	steps := int((sampled-r.cfg.ECCCorrectBER)/r.cfg.RetryStepBER) + 1
	r.stats.Retried++
	if steps > r.cfg.MaxRetries {
		steps = r.cfg.MaxRetries
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
	r.stats.Steps += uint64(steps)
	return time.Duration(steps) * (d.readCost[page] + r.cfg.ECCDecodeLatency)
}

// TestReliabilityFastPathExact drives reliabilityPenalty and refPenalty
// over the same read sequence on twin devices: per-read cost, stats,
// uncorrectable counts and retirement flags must agree exactly. Blocks
// carry mixed erase counts and pages span ages on both sides of every
// retention cap, so rber sweeps across the ECC threshold.
func TestReliabilityFastPathExact(t *testing.T) {
	const readsPerConfig = 1 << 17 // 12 configs: 1.5 M reads
	low, err := ReliabilityProfileByName("low")
	if err != nil {
		t.Fatal(err)
	}
	high, err := ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name string
		cfg  ReliabilityConfig
	}{
		{"low", low},
		{"high", high},
		{"neverRetried", neverRetried()},
		{"alwaysUncorrectable", alwaysUncorrectable()},
	}
	cfg := testConfig()
	total := 0
	for _, base := range bases {
		for _, retCap := range []float64{0, 1, 1.5} {
			rc := base.cfg
			rc.RetentionCap = retCap
			if rc.RetentionFactor == 0 {
				rc.RetentionFactor = 0.01
			}
			fast, ref := MustNewDevice(cfg), MustNewDevice(cfg)
			for _, d := range []*Device{fast, ref} {
				if err := d.SetReliability(rc, 11); err != nil {
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
			for i := 0; i < readsPerConfig; i++ {
				now += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
				p := PPN(rng.Int63n(int64(cfg.TotalPages())))
				b, page := cfg.SplitPPN(p)
				fast.now, ref.now = now, now
				got := fast.reliabilityPenalty(b, &fast.blocks[b], p, page)
				want := refPenalty(ref, b, &ref.blocks[b], p, page)
				if got != want {
					t.Fatalf("%s cap %g read %d (page %d, age %v): cost %v, reference %v",
						base.name, retCap, i, p, now-fast.rel.progTime[p], got, want)
				}
			}
			total += readsPerConfig
			fr, rr := fast.rel, ref.rel
			if fr.stats != rr.stats || fr.rng != rr.rng {
				t.Errorf("%s cap %g: stats %+v, reference %+v", base.name, retCap, fr.stats, rr.stats)
			}
			if !slices.Equal(fr.uncorr, rr.uncorr) || !slices.Equal(fr.flags, rr.flags) ||
				!slices.Equal(fr.retireQ, rr.retireQ) || fr.qHead != rr.qHead || fr.qLen != rr.qLen {
				t.Errorf("%s cap %g: retirement state differs from the reference", base.name, retCap)
			}
		}
	}
	if total < 1_000_000 {
		t.Fatalf("compared %d reads, want at least 1 M", total)
	}
}

// TestReliabilityCleanBound checks the log-free clean-read test at the
// edges of u: at 2^-54, around 0.5 (where 1-u stops being exact) and at
// 1-2^-53, with the ECC threshold one float and 1e-15 or 1e-12 below
// the sampled rate rber*-ln u, where the exact comparison finds the
// read not clean. A randomized sweep repeats this with thresholds
// within 1e-12 of the sample and ECC/rber ratios from e^-30 to e^30,
// and again within 2^-20 of u = 1.
func TestReliabilityCleanBound(t *testing.T) {
	// sound fails if surelyClean settles a read the exact comparison
	// rber*-ln u <= ecc does not find clean.
	sound := func(rber, u, ecc float64) {
		t.Helper()
		c := relState{cleanBER: cleanThreshold(ecc)}
		if sampled := rber * -math.Log(u); c.surelyClean(rber, u) && !(sampled <= ecc) {
			t.Fatalf("u = %v, rber = %v: claims clean above ECC %v (sampled %v)", u, rber, ecc, sampled)
		}
	}
	edges := []float64{
		0x1p-54,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		1 - 0x1p-53,
	}
	for _, u := range edges {
		if b := (1 - u) * (1 + u) / (2 * u); b < -math.Log(u) {
			t.Fatalf("bound %v below -ln u = %v at u = %v", b, -math.Log(u), u)
		}
		for _, rber := range []float64{1e-300, 3e-4, 1e-3, 1, 7.5e8} {
			sampled := rber * -math.Log(u)
			for _, ecc := range []float64{math.Nextafter(sampled, 0), sampled * (1 - 1e-12), sampled * (1 - 1e-15)} {
				sound(rber, u, ecc)
			}
		}
	}
	// Near u = 1 the bound is tight: a threshold 1e-8 above the sample
	// must take the shortcut.
	for _, u := range []float64{math.Nextafter(1, 0), 1 - 0x1p-40, 1 - 0x1p-20} {
		ecc := 1e-3 * -math.Log(u) * (1 + 1e-8)
		if r := (relState{cleanBER: cleanThreshold(ecc)}); !r.surelyClean(1e-3, u) {
			t.Errorf("u = %v: shortcut missed a threshold 1e-8 above the sample", u)
		}
	}
	var r relState
	r.rng = 3
	rng := rand.New(rand.NewSource(17))
	for range 1_000_000 {
		u := r.nextFloat()
		rber := math.Exp(rng.Float64()*60 - 30)
		sound(rber, u, rber*-math.Log(u)*(1+(rng.Float64()*2-1)*1e-12))
	}
	// Within 2^-20 of u = 1 the bound and the log agree to rounding, and
	// the computed bound often lands an ulp or two below the computed
	// log: there only the margin keeps the shortcut sound.
	for range 200_000 {
		u := 1 - math.Exp2(-53+rng.Float64()*33)
		rber := math.Exp(rng.Float64()*60 - 30)
		sound(rber, u, math.Nextafter(rber*-math.Log(u), 0))
	}
	// Subnormal thresholds turn the shortcut off except for a zero bound.
	if c := cleanThreshold(0x1p-1030); c != 0 {
		t.Errorf("cleanThreshold(subnormal) = %v, want 0", c)
	}
}
