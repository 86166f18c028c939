package ftl

import (
	"errors"
	"strings"
	"testing"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

func TestWearByNameRoundtrip(t *testing.T) {
	for _, name := range []string{"none", "wear-aware", "threshold-swap"} {
		w, err := WearByName(name)
		if err != nil {
			t.Fatalf("WearByName(%q): %v", name, err)
		}
		if w.String() != name {
			t.Errorf("WearByName(%q).String() = %q", name, w.String())
		}
	}
	if w, err := WearByName(""); err != nil || w != WearNone {
		t.Errorf("empty name = (%v, %v), want the default", w, err)
	}
	if _, err := WearByName("static"); err == nil ||
		!strings.Contains(err.Error(), "none, wear-aware or threshold-swap") {
		t.Errorf("unknown wear error %v must list the valid names", err)
	}
}

func TestWearOptionsDefaultsAndValidation(t *testing.T) {
	cfg := testConfig() // 8 pages/block
	if got := wearWindow(&cfg); got != 1 {
		t.Errorf("wear window on %d pages/block = %d, want 1", cfg.PagesPerBlock, got)
	}
	small := cfg
	small.PagesPerBlock = 4
	if got := wearWindow(&small); got != 1 {
		t.Errorf("wear window on %d pages/block = %d, want the minimum 1", small.PagesPerBlock, got)
	}
	table := nand.TableOneConfig() // 384 pages/block
	if got := wearWindow(&table); got != 48 {
		t.Errorf("wear window on %d pages/block = %d, want 48", table.PagesPerBlock, got)
	}

	bad := []Options{
		{OverProvision: 0.1, Wear: WearThresholdSwap + 1},
		{OverProvision: 0.1, Dispatch: vblock.TenantPartition + 1},
		{OverProvision: 0.1, Reliability: &nand.ReliabilityConfig{Enabled: true}},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
	good := Options{OverProvision: 0.1, Wear: WearThresholdSwap, Reliability: &nand.ReliabilityConfig{}}
	if err := good.validate(); err != nil {
		t.Errorf("valid wear options rejected: %v", err)
	}
}

// TestReliabilityRetirementThroughGC wears a small conventional FTL to
// death: with a tiny P/E limit, GC's own erases push hot blocks over
// the limit, the device flags them, the GC loop retires them (device
// mark + vblock lifecycle), and the shrinking spare pool eventually
// ends in ErrNoSpace — the lifetime probe of experiment a9 in
// miniature, here asserting the bookkeeping stays consistent.
func TestReliabilityRetirementThroughGC(t *testing.T) {
	cfg := testConfig()
	rel := nand.ReliabilityConfig{
		Enabled:       true,
		BaseBER:       1e-9, // ECC 1000x above: reads never retry (see nand tests)
		ECCCorrectBER: 1e-6,
		RetryStepBER:  1e-6,
		MaxRetries:    3,
		PECycleLimit:  3,
	}
	f := newFTL(t, "conventional", cfg, Options{OverProvision: 0.2, Reliability: &rel, ReliabilitySeed: 1})
	span := f.LogicalPages()
	for lpn := uint64(0); lpn < span; lpn++ {
		if err := f.Write(lpn, cfg.PageSize); err != nil {
			t.Fatalf("cold fill at lpn %d: %v", lpn, err)
		}
	}
	hot := span / 8
	limit := cfg.TotalPages() * uint64(rel.PECycleLimit+1) * 4
	var writes uint64
	for ; writes < limit; writes++ {
		if err := f.Write(writes%hot, cfg.PageSize); err != nil {
			if errors.Is(err, ErrNoSpace) {
				break
			}
			t.Fatalf("write %d: %v", writes, err)
		}
	}
	if writes == limit {
		t.Fatalf("device survived %d writes at P/E limit %d — retirement never bit", limit, rel.PECycleLimit)
	}
	if writes == 0 {
		t.Fatal("device died on the first hot write")
	}
	dev := f.Device()
	if dev.RetiredBlocks() == 0 {
		t.Error("no blocks retired on the device at wear-out")
	}
	if dev.MaxEraseCount() < uint32(rel.PECycleLimit) {
		t.Errorf("max erase count %d below the P/E limit %d", dev.MaxEraseCount(), rel.PECycleLimit)
	}
	if err := f.CheckMapping(); err != nil {
		t.Errorf("mapping inconsistent after wear-out: %v", err)
	}
	// Every surviving mapped page must still be readable.
	for lpn := uint64(0); lpn < span; lpn++ {
		if _, err := f.Read(lpn); err != nil {
			t.Fatalf("read of lpn %d after wear-out: %v", lpn, err)
		}
	}
}

// TestWearLevelingFlattensWear: under the same hot/cold churn, the
// threshold-swap policy must close the erase-count spread the greedy
// policy leaves between hot and cold blocks.
func TestWearLevelingFlattensWear(t *testing.T) {
	spread := func(wear WearPolicy) uint32 {
		cfg := testConfig()
		f := newFTL(t, "conventional", cfg, Options{OverProvision: 0.2, Wear: wear})
		span := f.LogicalPages()
		for lpn := uint64(0); lpn < span; lpn++ {
			if err := f.Write(lpn, cfg.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		hot := span / 8
		for i := uint64(0); i < 40*span; i++ {
			if err := f.Write(i%hot, cfg.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		dev := f.Device()
		minWear := ^uint32(0)
		for b := 0; b < cfg.TotalBlocks(); b++ {
			if w := dev.EraseCount(nand.BlockID(b)); w < minWear {
				minWear = w
			}
		}
		return dev.MaxEraseCount() - minWear
	}
	greedy := spread(WearNone)
	leveled := spread(WearThresholdSwap)
	if greedy == 0 {
		t.Fatal("hot/cold churn produced no wear spread under greedy GC")
	}
	if leveled >= greedy {
		t.Errorf("threshold-swap spread %d not below greedy %d", leveled, greedy)
	}
}
