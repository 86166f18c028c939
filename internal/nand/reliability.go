package nand

import (
	"fmt"
	"math"
	"time"
)

// The layer-aware reliability model.
//
// The paper's premise — the vertical-channel etch narrows towards the
// bottom of the gate stack — implies more than the latency ramp: the
// narrower channel sections also hold fewer electrons per cell, so the
// fast bottom layers pay for their speed with a higher raw bit-error
// rate (RBER). Luo et al. (HPCA 2018) measured real 3D NAND and found
// RBER dominated by exactly three effects: layer-to-layer process
// variation, program/erase cycling, and early retention loss. The model
// multiplies the three:
//
//	rber(page) = layerBER(page)
//	           * (1 + PECycleFactor   * eraseCount(block))
//	           * (1 + RetentionFactor * ageSeconds(page))
//	layerBER(page) = BaseBER * (1 + LayerSkew * layer/(Layers-1))
//
// Every read of an enabled device draws one exponential variate from a
// per-device seeded PRNG and samples an observed error rate
// rber * Exp(1). ECC corrects up to ECCCorrectBER for free; above that
// the controller enters read-retry, charging one extra sense plus an
// ECC decode per RetryStepBER of excess error rate (Luo et al.'s
// retry-step model); past MaxRetries steps the read is uncorrectable
// and pays UncorrectablePenalty on top. Blocks accumulating
// UncorrectableLimit uncorrectable reads — or reaching PECycleLimit
// program/erase cycles — are flagged for retirement; the FTL scrubs and
// retires them (see ftl and vblock).
//
// Exactly one PRNG draw happens per enabled read regardless of outcome,
// so the injected fault sequence is a pure function of the seed and the
// device op sequence — never of wall-clock time, run interleaving or
// math/rand global state.

// ReliabilityConfig parameterizes the layer-aware reliability model.
// The zero value (Enabled false) disables the model entirely: reads are
// bit-identical to a device without the model. ReliabilityProfileByName
// resolves the built-in presets ("off", "low", "high").
type ReliabilityConfig struct {
	// Enabled turns the model on. All other fields are ignored when false.
	Enabled bool
	// BaseBER is the raw bit-error rate of a fresh page on the top
	// (slowest, widest-etch) layer.
	BaseBER float64
	// LayerSkew scales how much worse the bottom layer is than the top:
	// the bottom (fastest) layer's base RBER is BaseBER*(1+LayerSkew).
	LayerSkew float64
	// PECycleFactor is the fractional RBER increase per program/erase
	// cycle of the page's block.
	PECycleFactor float64
	// RetentionFactor is the fractional RBER increase per simulated
	// second since the page was programmed (early retention loss).
	RetentionFactor float64
	// RetentionCap bounds the retention multiplier (1 +
	// RetentionFactor*age) — charge-trap retention loss is fast early
	// and then saturates, so old data plateaus instead of growing
	// linearly worse forever. 0 leaves the multiplier uncapped.
	RetentionCap float64
	// ECCCorrectBER is the highest sampled error rate the ECC corrects
	// without retry.
	ECCCorrectBER float64
	// RetryStepBER is the additional error rate each read-retry step
	// recovers beyond ECCCorrectBER.
	RetryStepBER float64
	// MaxRetries caps the retry steps; a read needing more is
	// uncorrectable.
	MaxRetries int
	// ECCDecodeLatency is charged once per retry step on top of the
	// re-sense.
	ECCDecodeLatency time.Duration
	// UncorrectablePenalty is the extra recovery cost of an
	// uncorrectable read (RAID-style reconstruction stand-in).
	UncorrectablePenalty time.Duration
	// PECycleLimit retires a block when its erase count reaches the
	// limit (0 disables P/E-based retirement).
	PECycleLimit uint32
	// UncorrectableLimit retires a block after this many uncorrectable
	// reads (0 disables error-based retirement).
	UncorrectableLimit uint32
}

// Validate reports a descriptive error for the first invalid field. A
// disabled config is always valid.
func (r ReliabilityConfig) Validate() error {
	if !r.Enabled {
		return nil
	}
	switch {
	case r.BaseBER <= 0:
		return fmt.Errorf("nand: reliability BaseBER must be positive, got %g", r.BaseBER)
	case r.LayerSkew < 0:
		return fmt.Errorf("nand: reliability LayerSkew must be non-negative, got %g", r.LayerSkew)
	case r.PECycleFactor < 0 || r.RetentionFactor < 0:
		return fmt.Errorf("nand: reliability wear factors must be non-negative")
	case r.RetentionCap != 0 && r.RetentionCap < 1:
		return fmt.Errorf("nand: reliability RetentionCap must be >= 1 (or 0 for uncapped), got %g", r.RetentionCap)
	case r.ECCCorrectBER <= 0:
		return fmt.Errorf("nand: reliability ECCCorrectBER must be positive, got %g", r.ECCCorrectBER)
	case r.RetryStepBER <= 0:
		return fmt.Errorf("nand: reliability RetryStepBER must be positive, got %g", r.RetryStepBER)
	case r.MaxRetries < 1:
		return fmt.Errorf("nand: reliability MaxRetries must be >= 1, got %d", r.MaxRetries)
	case r.ECCDecodeLatency < 0 || r.UncorrectablePenalty < 0:
		return fmt.Errorf("nand: reliability latencies must be non-negative")
	}
	return nil
}

// ReliabilityProfileByName resolves a built-in reliability preset from
// its name — the spelling flashsim -reliability accepts. "off" (or
// empty) disables the model; "low" models a healthy early-life part;
// "high" models an aged, error-prone part with aggressive retirement
// thresholds.
//
// The retention factors are calibrated to the simulator's time scale:
// replays of the scaled Table 1 device span minutes of simulated time,
// so each second here stands in for a much longer real-world retention
// interval; the cap keeps retention a bounded multiplier instead of a
// term that dominates any sufficiently long trace. The P/E limits sit
// above the wear a trace replay reaches (hot blocks see ~50-100 cycles
// at the quick/bench scales), so replays measure retry behavior on an
// intact device; wear-out experiments override PECycleLimit downward
// explicitly (see the harness lifetime probe).
func ReliabilityProfileByName(name string) (ReliabilityConfig, error) {
	switch name {
	case "", "off":
		return ReliabilityConfig{}, nil
	case "low":
		return ReliabilityConfig{
			Enabled:              true,
			BaseBER:              3e-4,
			LayerSkew:            1.0,
			PECycleFactor:        0.005,
			RetentionFactor:      0.005,
			RetentionCap:         1.5,
			ECCCorrectBER:        3e-3,
			RetryStepBER:         2e-3,
			MaxRetries:           8,
			ECCDecodeLatency:     10 * time.Microsecond,
			UncorrectablePenalty: 2 * time.Millisecond,
			PECycleLimit:         2000,
			UncorrectableLimit:   8,
		}, nil
	case "high":
		return ReliabilityConfig{
			Enabled:              true,
			BaseBER:              1e-3,
			LayerSkew:            1.0,
			PECycleFactor:        0.01,
			RetentionFactor:      0.01,
			RetentionCap:         1.5,
			ECCCorrectBER:        3e-3,
			RetryStepBER:         4e-3,
			MaxRetries:           12,
			ECCDecodeLatency:     10 * time.Microsecond,
			UncorrectablePenalty: 2 * time.Millisecond,
			PECycleLimit:         500,
			UncorrectableLimit:   12,
		}, nil
	default:
		return ReliabilityConfig{}, fmt.Errorf("nand: unknown reliability profile %q (want off, low or high)", name)
	}
}

// ReliabilityStats counts the outcomes of reads under an enabled
// reliability model. Retried counts reads needing at least one retry
// step (including the ones that ended uncorrectable); Steps sums the
// retry steps charged, so Steps/Retried is the mean retry depth.
type ReliabilityStats struct {
	// Retried is how many reads needed at least one read-retry step.
	Retried uint64
	// Steps is the total read-retry steps charged across all reads.
	Steps uint64
	// Uncorrectable is how many reads exhausted MaxRetries.
	Uncorrectable uint64
	// Retired is how many blocks have been marked retired.
	Retired uint64
}

// Per-block retirement flags.
const (
	relFlagPending uint8 = 1 << iota // retirement recommended, not yet acted on
	relFlagQueued                    // sitting in the retire-candidate queue
	relFlagRetired                   // retired: no programs or erases accepted
)

// relState is the runtime state of an enabled reliability model. It is
// allocated once by SetReliability; the read hot path only indexes its
// preallocated arrays, keeping retried reads at zero allocations.
type relState struct {
	cfg      ReliabilityConfig
	rng      uint64          // splitmix64 state
	cleanBER float64         // clean-read threshold (see surelyClean)
	layerBER []float64       // per page-index layer-skewed base RBER
	progTime []time.Duration // per-PPN program-time stamp
	uncorr   []uint32        // per-block uncorrectable-read count
	flags    []uint8         // per-block retirement flags
	retireQ  []BlockID       // ring buffer of retire candidates
	qHead    int
	qLen     int
	stats    ReliabilityStats
}

// nextFloat draws the next uniform variate in (0, 1) from the splitmix64
// stream. Exactly one draw happens per enabled read.
func (r *relState) nextFloat() float64 {
	r.rng += 0x9E3779B97F4A7C15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return (float64(z>>11) + 0.5) / (1 << 53)
}

// surelyClean reports, without a logarithm, that a read of error rate
// rber whose Exp(1) variate is -ln u samples at or below ECCCorrectBER.
// On (0,1], -ln u <= (1-u)(1+u)/(2u) (the log-mean inequality at t =
// 1/u). That form rounds to within a few ulps of its true value, and
// the 1e-9 margin in cleanBER absorbs the rounding of both sides, so
// the test fires only for reads the exact comparison also finds clean.
func (r *relState) surelyClean(rber, u float64) bool {
	return rber*((1-u)*(1+u)/(2*u)) <= r.cleanBER
}

// cleanThreshold returns the cleanBER of an ECC threshold. Below the
// normal floating-point range the margin would be lost to rounding, so
// there it returns 0, which admits only a zero bound — a read the exact
// comparison also finds clean.
func cleanThreshold(ecc float64) float64 {
	if ecc < 0x1p-1022 {
		return 0
	}
	return ecc * (1 - 1e-9)
}

// flagRetire recommends block b for retirement and enqueues it as a
// candidate unless it is already queued or retired. The queue is a
// preallocated ring sized for every block, so flagging never allocates.
func (r *relState) flagRetire(b BlockID) {
	if r.flags[b]&relFlagRetired != 0 {
		return
	}
	if r.flags[b]&relFlagQueued != 0 {
		r.flags[b] |= relFlagPending
		return
	}
	r.flags[b] |= relFlagPending | relFlagQueued
	r.retireQ[(r.qHead+r.qLen)%len(r.retireQ)] = b
	r.qLen++
}

// SetReliability installs (cfg.Enabled) or removes (a disabled cfg) the
// reliability model. The seed drives the per-device fault-injection
// PRNG: equal seeds and op sequences inject identical faults at any run
// parallelism. Installing resets all model state (stamps, counts,
// flags, stats); call it before issuing operations.
func (d *Device) SetReliability(cfg ReliabilityConfig, seed int64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !cfg.Enabled {
		d.rel = nil
		return nil
	}
	blocks := d.cfg.TotalBlocks()
	r := &relState{
		cfg:      cfg,
		rng:      uint64(seed),
		layerBER: make([]float64, d.cfg.PagesPerBlock),
		progTime: make([]time.Duration, d.cfg.TotalPages()),
		uncorr:   make([]uint32, blocks),
		flags:    make([]uint8, blocks),
		retireQ:  make([]BlockID, blocks+1),
	}
	for p := range r.layerBER {
		frac := 0.0
		if d.cfg.Layers > 1 {
			frac = float64(d.cfg.LayerOf(p)) / float64(d.cfg.Layers-1)
		}
		r.layerBER[p] = cfg.BaseBER * (1 + cfg.LayerSkew*frac)
	}
	r.cleanBER = cleanThreshold(cfg.ECCCorrectBER)
	d.rel = r
	return nil
}

// ReliabilityEnabled reports whether the reliability model is installed.
func (d *Device) ReliabilityEnabled() bool { return d.rel != nil }

// ReliabilityStats returns a snapshot of the model's outcome counters
// (zero when the model is disabled).
func (d *Device) ReliabilityStats() ReliabilityStats {
	if d.rel == nil {
		return ReliabilityStats{}
	}
	return d.rel.stats
}

// reliabilityPenalty samples the reliability outcome of reading page of
// block b and returns the extra device time the read costs (zero for a
// clean read). It is the read hot path: no allocations, exactly one
// PRNG draw, and no logarithm for reads surelyClean settles.
func (d *Device) reliabilityPenalty(b BlockID, blk *blockState, p PPN, page int) time.Duration {
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
	// The offset in nextFloat keeps u strictly above zero, so neither
	// the bound nor the log sees zero.
	u := r.nextFloat()
	if r.surelyClean(rber, u) {
		return 0
	}
	sampled := rber * -math.Log(u)
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

// RetireRecommended reports whether block b has a pending retirement
// recommendation (error or P/E threshold crossed, not yet retired).
// False for out-of-range blocks or a disabled model.
func (d *Device) RetireRecommended(b BlockID) bool {
	if d.rel == nil || int(b) >= len(d.rel.flags) {
		return false
	}
	return d.rel.flags[b]&relFlagPending != 0 && d.rel.flags[b]&relFlagRetired == 0
}

// blockRetired reports whether block b has been retired. Retired blocks
// reject programs and erases; the FTL must stop allocating from them.
func (d *Device) blockRetired(b BlockID) bool {
	if d.rel == nil || int(b) >= len(d.rel.flags) {
		return false
	}
	return d.rel.flags[b]&relFlagRetired != 0
}

// MarkRetired retires block b: it will reject programs and erases from
// now on. The caller (the FTL's GC) relocates surviving valid pages and
// removes the block from its allocation pools first. Retiring an
// already-retired or out-of-range block is a no-op.
func (d *Device) MarkRetired(b BlockID) {
	if d.rel == nil || int(b) >= len(d.rel.flags) {
		return
	}
	if d.rel.flags[b]&relFlagRetired != 0 {
		return
	}
	d.rel.flags[b] = (d.rel.flags[b] &^ relFlagPending) | relFlagRetired
	d.rel.stats.Retired++
}

// RetiredBlocks returns how many blocks have been retired.
func (d *Device) RetiredBlocks() int {
	if d.rel == nil {
		return 0
	}
	return int(d.rel.stats.Retired)
}

// NextRetireCandidate pops the next block flagged for retirement but
// not yet retired (false when none is pending). The FTL's GC drains
// this queue to scrub candidates proactively; a popped candidate the
// FTL chooses not to scrub keeps its pending recommendation and is
// retired at the block's next GC erase instead.
func (d *Device) NextRetireCandidate() (BlockID, bool) {
	r := d.rel
	if r == nil {
		return 0, false
	}
	for r.qLen > 0 {
		b := r.retireQ[r.qHead]
		r.qHead = (r.qHead + 1) % len(r.retireQ)
		r.qLen--
		r.flags[b] &^= relFlagQueued
		if r.flags[b]&relFlagRetired == 0 {
			return b, true
		}
	}
	return 0, false
}
