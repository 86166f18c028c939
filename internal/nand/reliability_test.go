package nand

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// alwaysUncorrectable returns a config whose every read is uncorrectable
// unless its draw is exactly u = 1 (odds 2^-53, -ln u = 0): every other
// draw is at most 1-2^-53, so its Exp(1) variate is at least ~1.1e-16,
// and with rber = 1 the sampled error rate clears the tiny ECC and retry
// thresholds by more than MaxRetries steps.
func alwaysUncorrectable() ReliabilityConfig {
	return ReliabilityConfig{
		Enabled:              true,
		BaseBER:              1,
		ECCCorrectBER:        1e-18,
		RetryStepBER:         1e-18,
		MaxRetries:           3,
		ECCDecodeLatency:     10 * time.Microsecond,
		UncorrectablePenalty: time.Millisecond,
		UncorrectableLimit:   2,
	}
}

// neverRetried returns a config whose every read is guaranteed clean:
// the Exp(1) draw is bounded above by ~37.4 (u >= 2^-54), so the sampled
// rate can never reach an ECC threshold 1000x above the base RBER.
func neverRetried() ReliabilityConfig {
	return ReliabilityConfig{
		Enabled:       true,
		BaseBER:       1e-9,
		ECCCorrectBER: 1e-6,
		RetryStepBER:  1e-6,
		MaxRetries:    3,
	}
}

func TestReliabilityProfileByName(t *testing.T) {
	for _, name := range []string{"off", "low", "high"} {
		cfg, err := ReliabilityProfileByName(name)
		if err != nil {
			t.Fatalf("profile %q: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
		if cfg.Enabled != (name != "off") {
			t.Errorf("profile %q enabled = %v", name, cfg.Enabled)
		}
	}
	if cfg, err := ReliabilityProfileByName(""); err != nil || cfg.Enabled {
		t.Errorf("empty name = (%+v, %v), want disabled", cfg, err)
	}
	if _, err := ReliabilityProfileByName("medium"); err == nil ||
		!strings.Contains(err.Error(), "off, low or high") {
		t.Errorf("unknown profile error %v must list the valid names", err)
	}
}

func TestReliabilityConfigValidate(t *testing.T) {
	bad := []ReliabilityConfig{
		{Enabled: true}, // BaseBER missing
		{Enabled: true, BaseBER: 1e-3, LayerSkew: -1},                           // negative skew
		{Enabled: true, BaseBER: 1e-3, PECycleFactor: -0.1},                     // negative wear factor
		{Enabled: true, BaseBER: 1e-3, RetentionCap: 0.5},                       // cap below 1
		{Enabled: true, BaseBER: 1e-3},                                          // ECCCorrectBER missing
		{Enabled: true, BaseBER: 1e-3, ECCCorrectBER: 1e-3},                     // RetryStepBER missing
		{Enabled: true, BaseBER: 1e-3, ECCCorrectBER: 1e-3, RetryStepBER: 1e-3}, // MaxRetries missing
		{Enabled: true, BaseBER: 1e-3, ECCCorrectBER: 1e-3, RetryStepBER: 1e-3,
			MaxRetries: 1, ECCDecodeLatency: -time.Second}, // negative latency
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Non-finite values, one field at a time on an otherwise valid
	// profile: NaN fails no ordered comparison and +Inf passes the lower
	// bounds, so each needs the finiteness check.
	high, err := ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	if err := high.Validate(); err != nil {
		t.Fatalf("high profile rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		set   func(*ReliabilityConfig)
	}{
		{"BaseBER", func(c *ReliabilityConfig) { c.BaseBER = math.NaN() }},
		{"LayerSkew", func(c *ReliabilityConfig) { c.LayerSkew = math.Inf(1) }},
		{"PECycleFactor", func(c *ReliabilityConfig) { c.PECycleFactor = math.NaN() }},
		{"RetentionFactor", func(c *ReliabilityConfig) { c.RetentionFactor = math.Inf(1) }},
		{"RetentionCap", func(c *ReliabilityConfig) { c.RetentionCap = math.NaN() }},
		{"ECCCorrectBER", func(c *ReliabilityConfig) { c.ECCCorrectBER = math.Inf(1) }},
		{"RetryStepBER", func(c *ReliabilityConfig) { c.RetryStepBER = math.Inf(1) }},
	} {
		cfg := high
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field+" must be finite") {
			t.Errorf("non-finite %s: Validate() = %v, want a finiteness error naming the field", tc.field, err)
		}
	}
	if err := (ReliabilityConfig{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	d := MustNewDevice(testConfig())
	if err := d.SetReliability(ReliabilityConfig{Enabled: true}, 1); err == nil {
		t.Error("SetReliability accepted an invalid config")
	}
}

// TestReliabilityDisabledBitIdentical: a device with the model removed
// (or never installed) charges exactly the plain read cost.
func TestReliabilityDisabledBitIdentical(t *testing.T) {
	cfg := testConfig()
	plain := MustNewDevice(cfg)
	modeled := MustNewDevice(cfg)
	if err := modeled.SetReliability(alwaysUncorrectable(), 7); err != nil {
		t.Fatal(err)
	}
	if err := modeled.SetReliability(ReliabilityConfig{}, 7); err != nil {
		t.Fatal(err) // a disabled config removes the model
	}
	if modeled.ReliabilityEnabled() {
		t.Fatal("model still enabled after disabling config")
	}
	for page := 0; page < cfg.PagesPerBlock; page++ {
		p := cfg.PPNForBlockPage(0, page)
		if _, err := plain.Program(p, OOB{LPN: uint64(page)}); err != nil {
			t.Fatal(err)
		}
		if _, err := modeled.Program(p, OOB{LPN: uint64(page)}); err != nil {
			t.Fatal(err)
		}
		_, c1, err := plain.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		_, c2, err := modeled.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatalf("page %d: disabled-model read cost %v != plain %v", page, c2, c1)
		}
	}
}

// TestReliabilityDeterministicAcrossDevices: equal seeds and op
// sequences produce identical injected faults; different seeds diverge.
func TestReliabilityDeterministicAcrossDevices(t *testing.T) {
	cfg := testConfig()
	prof, err := ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (ReliabilityStats, time.Duration) {
		d := MustNewDevice(cfg)
		if err := d.SetReliability(prof, seed); err != nil {
			t.Fatal(err)
		}
		var total time.Duration
		for page := 0; page < cfg.PagesPerBlock; page++ {
			p := cfg.PPNForBlockPage(0, page)
			if _, err := d.Program(p, OOB{LPN: uint64(page)}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				_, c, err := d.Read(p)
				if err != nil {
					t.Fatal(err)
				}
				total += c
			}
		}
		return d.ReliabilityStats(), total
	}
	s1, c1 := run(42)
	s2, c2 := run(42)
	if s1 != s2 || c1 != c2 {
		t.Errorf("same seed diverged: %+v/%v vs %+v/%v", s1, c1, s2, c2)
	}
	if s1.Retried == 0 {
		t.Error("high profile injected no retries over 1600 reads")
	}
	s3, _ := run(43)
	if s1 == s3 {
		t.Error("different seeds produced identical fault sequences")
	}
}

// TestReliabilityRetryPenaltyMath pins the uncorrectable worst case:
// every read of the always-uncorrectable config pays the base read cost
// plus MaxRetries re-senses with ECC decodes plus the recovery penalty,
// and the stats count one retried, MaxRetries steps, one uncorrectable.
func TestReliabilityRetryPenaltyMath(t *testing.T) {
	cfg := testConfig()
	rc := alwaysUncorrectable()
	d := MustNewDevice(cfg)
	if err := d.SetReliability(rc, 1); err != nil {
		t.Fatal(err)
	}
	page := 0
	p := cfg.PPNForBlockPage(0, page)
	if _, err := d.Program(p, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	base := d.readCost[page]
	_, cost, err := d.Read(p)
	if err != nil {
		t.Fatal(err)
	}
	want := base + time.Duration(rc.MaxRetries)*(base+rc.ECCDecodeLatency) + rc.UncorrectablePenalty
	if cost != want {
		t.Errorf("uncorrectable read cost = %v, want %v", cost, want)
	}
	st := d.ReliabilityStats()
	if st.Retried != 1 || st.Steps != uint64(rc.MaxRetries) || st.Uncorrectable != 1 {
		t.Errorf("stats = %+v, want 1 retried / %d steps / 1 uncorrectable", st, rc.MaxRetries)
	}

	// The clean configuration charges exactly the base cost.
	clean := MustNewDevice(cfg)
	if err := clean.SetReliability(neverRetried(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Program(p, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, cost, err := clean.Read(p); err != nil || cost != base {
		t.Errorf("clean read = (%v, %v), want cost %v", cost, err, base)
	}
	if st := clean.ReliabilityStats(); st != (ReliabilityStats{}) {
		t.Errorf("clean read moved stats: %+v", st)
	}
}

// TestReliabilityLayerSkewOrdersBER: the precomputed per-page base RBER
// must rise toward the bottom (fast, narrow-etch) layers.
func TestReliabilityLayerSkewOrdersBER(t *testing.T) {
	cfg := testConfig() // 8 pages over 4 layers: layer = page/2
	d := MustNewDevice(cfg)
	rc := neverRetried()
	rc.LayerSkew = 1.0
	if err := d.SetReliability(rc, 1); err != nil {
		t.Fatal(err)
	}
	ber := d.rel.layerBER
	if ber[0] != rc.BaseBER {
		t.Errorf("top layer BER = %g, want base %g", ber[0], rc.BaseBER)
	}
	if got, want := ber[cfg.PagesPerBlock-1], rc.BaseBER*2; got != want {
		t.Errorf("bottom layer BER = %g, want %g", got, want)
	}
	for p := 1; p < len(ber); p++ {
		if ber[p] < ber[p-1] {
			t.Errorf("layer BER not monotone at page %d: %g < %g", p, ber[p], ber[p-1])
		}
	}
}

// TestReliabilityUncorrectableRetirement: a block accumulating
// UncorrectableLimit uncorrectable reads is flagged, queued as a retire
// candidate, and once retired rejects programs and erases.
func TestReliabilityUncorrectableRetirement(t *testing.T) {
	cfg := testConfig()
	rc := alwaysUncorrectable() // UncorrectableLimit 2
	d := MustNewDevice(cfg)
	if err := d.SetReliability(rc, 1); err != nil {
		t.Fatal(err)
	}
	p := cfg.PPNForBlockPage(3, 0)
	if _, err := d.Program(p, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(p); err != nil {
		t.Fatal(err)
	}
	if d.RetireRecommended(3) {
		t.Fatal("flagged after one uncorrectable, limit is 2")
	}
	if _, ok := d.NextRetireCandidate(); ok {
		t.Fatal("candidate queued before the limit")
	}
	if _, _, err := d.Read(p); err != nil {
		t.Fatal(err)
	}
	if !d.RetireRecommended(3) {
		t.Fatal("not flagged at the uncorrectable limit")
	}
	cand, ok := d.NextRetireCandidate()
	if !ok || cand != 3 {
		t.Fatalf("candidate = (%v, %v), want block 3", cand, ok)
	}
	if _, ok := d.NextRetireCandidate(); ok {
		t.Fatal("candidate dequeued twice")
	}
	// A popped-but-unretired candidate keeps its recommendation (the FTL
	// may skip the scrub and retire at the next GC erase instead).
	if !d.RetireRecommended(3) {
		t.Fatal("popping the queue cleared the pending recommendation")
	}

	d.MarkRetired(3)
	if !d.blockRetired(3) || d.RetiredBlocks() != 1 {
		t.Fatalf("retired = %v/%d, want true/1", d.blockRetired(3), d.RetiredBlocks())
	}
	if d.RetireRecommended(3) {
		t.Error("retired block still recommended")
	}
	if _, err := d.Program(cfg.PPNForBlockPage(3, 1), OOB{LPN: 2}); !errors.Is(err, ErrBlockRetired) {
		t.Errorf("program on retired block: %v, want ErrBlockRetired", err)
	}
	if err := d.Invalidate(p); err != nil {
		t.Fatal(err) // invalidating stale data on a retired block stays legal
	}
	if _, err := d.Erase(3); !errors.Is(err, ErrBlockRetired) {
		t.Errorf("erase of retired block: %v, want ErrBlockRetired", err)
	}
	if _, err := d.EraseForce(3); !errors.Is(err, ErrBlockRetired) {
		t.Errorf("force erase of retired block: %v, want ErrBlockRetired", err)
	}
	d.MarkRetired(3) // no-op
	if d.RetiredBlocks() != 1 {
		t.Error("double MarkRetired double-counted")
	}
}

// TestReliabilityPECycleRetirement: crossing PECycleLimit erases flags
// the block at erase time.
func TestReliabilityPECycleRetirement(t *testing.T) {
	cfg := testConfig()
	rc := neverRetried()
	rc.PECycleLimit = 2
	d := MustNewDevice(cfg)
	if err := d.SetReliability(rc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(5); err != nil {
		t.Fatal(err)
	}
	if d.RetireRecommended(5) {
		t.Fatal("flagged after one erase, limit is 2")
	}
	if _, err := d.Erase(5); err != nil {
		t.Fatal(err)
	}
	if !d.RetireRecommended(5) {
		t.Fatal("not flagged at the P/E limit")
	}
	if cand, ok := d.NextRetireCandidate(); !ok || cand != 5 {
		t.Fatalf("candidate = (%v, %v), want block 5", cand, ok)
	}
	if got := d.MaxEraseCount(); got != 2 {
		t.Errorf("max erase count = %d, want 2", got)
	}
}

// TestReliabilityRetentionAgePenalty: an aged page must retry where a
// fresh one cannot, and the retention cap bounds the multiplier.
func TestReliabilityRetentionAgePenalty(t *testing.T) {
	cfg := testConfig()
	rc := neverRetried() // base rate can never reach ECC threshold
	rc.RetentionFactor = 1e6
	d := MustNewDevice(cfg)
	if err := d.SetReliability(rc, 9); err != nil {
		t.Fatal(err)
	}
	p := cfg.PPNForBlockPage(0, 0)
	if _, err := d.Program(p, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := d.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.ReliabilityStats(); st.Retried != 0 {
		t.Fatalf("fresh page retried %d times", st.Retried)
	}
	// Age the page: at +100 s the uncapped multiplier is 1e8, lifting
	// the sampled rate past the threshold on essentially every draw.
	d.AdvanceTo(100 * time.Second)
	for i := 0; i < 100; i++ {
		if _, _, err := d.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.ReliabilityStats(); st.Retried == 0 {
		t.Fatal("aged page never retried")
	}

	// The same aging under a cap of 1.0x changes nothing: the capped
	// multiplier leaves the never-retried guarantee intact.
	capped := MustNewDevice(cfg)
	rc.RetentionCap = 1
	if err := capped.SetReliability(rc, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := capped.Program(p, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	capped.AdvanceTo(100 * time.Second)
	for i := 0; i < 100; i++ {
		if _, _, err := capped.Read(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := capped.ReliabilityStats(); st.Retried != 0 {
		t.Fatalf("capped retention still retried %d reads", st.Retried)
	}
}
