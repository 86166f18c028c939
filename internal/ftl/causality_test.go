package ftl

import (
	"errors"
	"testing"
	"time"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// causalTestConfig is a two-chip device for cross-chip relocation tests:
// 8 pages/block, 8 blocks per chip.
func causalTestConfig() nand.Config {
	return nand.Config{
		PageSize:       512,
		PagesPerBlock:  8,
		BlocksPerChip:  8,
		Chips:          2,
		Layers:         8,
		SpeedRatio:     2,
		ReadLatency:    10 * time.Microsecond,
		ProgramLatency: 100 * time.Microsecond,
		EraseLatency:   time.Millisecond,
	}
}

// causalBase builds a Base over a fresh two-chip device with a victim
// block on chip 0 filled with valid, mapped pages.
func causalBase(t *testing.T) (*Base, *nand.Device, nand.BlockID) {
	t.Helper()
	cfg := causalTestConfig()
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	low, high := gcWatermarks(cfg)
	base, err := NewBase(dev, vbm, Placement{}, low, high, Options{OverProvision: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	vb, err := vbm.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	victim := vb.Block
	if got := int(victim) / cfg.BlocksPerChip; got != 0 {
		t.Fatalf("victim on chip %d, want chip 0", got)
	}
	for page := 0; page < cfg.PagesPerBlock; page++ {
		_, ppn, err := base.ProgramNext(victim, nand.OOB{LPN: uint64(page)})
		if err != nil {
			t.Fatal(err)
		}
		base.Map().Set(uint64(page), ppn)
	}
	return &base, dev, victim
}

// TestCausalRelocationChain: a GC relocation's program on an idle chip
// must start no earlier than its source read completes on the busy
// victim chip, and the victim erase no earlier than the last relocation
// lands. Without either After call in collectBlock the chain books the
// op early and this test fails.
func TestCausalRelocationChain(t *testing.T) {
	base, dev, victim := causalBase(t)
	cfg := dev.Config()
	// Relocation target: the first block of idle chip 1, programmed
	// directly so the copies land cross-chip.
	destBlock := nand.BlockID(cfg.BlocksPerChip)
	destPage := 0
	var lastProgFin time.Duration
	violations := 0
	reprogram := func(oob nand.OOB) (time.Duration, nand.PPN, error) {
		readFin := dev.LastFinish() // the source read scheduled just before
		ppn := cfg.PPNForBlockPage(destBlock, destPage)
		destPage++
		cost, err := dev.Program(ppn, oob)
		if err != nil {
			return 0, 0, err
		}
		if dev.LastStart() < readFin {
			violations++
		}
		if fin := dev.LastFinish(); fin > lastProgFin {
			lastProgFin = fin
		}
		return cost, ppn, nil
	}
	base.place.Relocate = reprogram
	if err := base.collectBlock(victim); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d relocation programs started before their source read completed", violations)
	}
	// The erase is the last scheduled op; its start must not precede the
	// final relocation.
	if dev.LastStart() < lastProgFin {
		t.Errorf("erase started at %v before last relocation finished at %v",
			dev.LastStart(), lastProgFin)
	}
}

// TestNestedCollectScratch: a collection re-entered through a
// relocation is refused with errGCReentered. collectBlock reuses
// one deferred-page scratch per FTL, so a nested collection would
// clobber the page list the outer pass is still working through. The
// refused collection must leave its victim untouched, and the outer one
// must still complete.
func TestNestedCollectScratch(t *testing.T) {
	cfg := causalTestConfig()
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	low, high := gcWatermarks(cfg)
	base, err := NewBase(dev, vbm, Placement{}, low, high, Options{OverProvision: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// fill allocates a block and programs all its pages with consecutive
	// LPNs starting at lpn0, registering the mappings.
	fill := func(lpn0 uint64) nand.BlockID {
		t.Helper()
		vb, err := vbm.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		blk := vb.Block
		for i := 0; i < cfg.PagesPerBlock; i++ {
			if i == cfg.PagesPerBlock/2 {
				if _, ok := vbm.OpenPendingGroup(0, true); !ok {
					t.Fatal("fast part not pending")
				}
			}
			_, ppn, err := base.ProgramNext(blk, nand.OOB{LPN: lpn0 + uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			base.Map().Set(lpn0+uint64(i), ppn)
		}
		return blk
	}
	victimA := fill(1)
	victimB := fill(42)

	// Shared relocation destination stream, fed through the manager's
	// write points so the release bookkeeping at the end of each
	// collection stays consistent: it holds one open part at a time.
	writeOne := func(oob nand.OOB) (time.Duration, nand.PPN, error) {
		dest, ok := vbm.Open(0, false)
		if !ok {
			dest, ok = vbm.Open(0, true)
		}
		if !ok {
			if vb, ok := vbm.OpenPendingGroup(0, true); ok {
				dest = vb.Block
			} else if vb, err := vbm.AllocateFirst(0); err == nil {
				dest = vb.Block
			} else {
				t.Fatal("no destination space")
			}
		}
		return base.ProgramNext(dest, oob)
	}
	// Defer odd LPNs so the outer collection runs both passes.
	oddLast := func(oob nand.OOB) bool { return oob.LPN%2 == 0 }
	var nestedErr error
	nested := false
	reprogram := func(oob nand.OOB) (time.Duration, nand.PPN, error) {
		if !nested {
			// First outer relocation: try to collect victim B while
			// victim A's deferred scratch is live.
			nested = true
			nestedErr = base.collectBlock(victimB)
		}
		return writeOne(oob)
	}
	base.place = Placement{Relocate: reprogram, RelocateFirst: oddLast}
	if err := base.collectBlock(victimA); err != nil {
		t.Fatalf("outer collect: %v", err)
	}
	if !errors.Is(nestedErr, errGCReentered) {
		t.Fatalf("nested collect returned %v, want %v", nestedErr, errGCReentered)
	}
	if got := dev.EraseCount(victimA); got != 1 {
		t.Errorf("outer victim erased %d times, want 1", got)
	}
	if got := dev.EraseCount(victimB); got != 0 {
		t.Errorf("refused victim erased %d times, want 0", got)
	}
	if got, want := base.Stats().GCCopies.Value(), uint64(cfg.PagesPerBlock); got != want {
		t.Errorf("GC copies = %d, want %d (the outer victim's pages only)", got, want)
	}
	// The refusal is scoped to the collection in flight: victim B
	// collects normally afterwards.
	base.place.Relocate = writeOne
	if err := base.collectBlock(victimB); err != nil {
		t.Fatalf("collect after the outer pass: %v", err)
	}
	if got := base.Stats().GCErases.Value(); got != 2 {
		t.Errorf("GC erases = %d, want 2", got)
	}
	if err := base.CheckMapping(); err != nil {
		t.Errorf("mapping corrupted: %v", err)
	}
	if err := dev.CheckAccounting(); err != nil {
		t.Errorf("device accounting: %v", err)
	}
	if err := vbm.CheckInvariants(); err != nil {
		t.Errorf("manager invariants: %v", err)
	}
}
