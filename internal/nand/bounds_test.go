package nand

import (
	"errors"
	"testing"
)

// TestAccessorsOutOfRange pins the introspection accessors to the same
// degradation State always had: out-of-range addresses yield zero values
// instead of panicking on a slice index, while the mutating operations
// keep returning ErrOutOfRange.
func TestAccessorsOutOfRange(t *testing.T) {
	cfg := testConfig()
	d := MustNewDevice(cfg)
	badBlock := BlockID(cfg.TotalBlocks())
	badPPN := PPN(cfg.TotalPages())

	// Give the device some state so zero results are not trivially true.
	goodPPN := cfg.PPNForBlockPage(0, 0)
	if _, err := d.Program(goodPPN, OOB{LPN: 42, Tag: 7}); err != nil {
		t.Fatal(err)
	}

	if got := d.State(badPPN); got != PageFree {
		t.Errorf("State(out of range) = %v, want free", got)
	}
	if got := d.PeekOOB(badPPN); got != (OOB{}) {
		t.Errorf("PeekOOB(out of range) = %+v, want zero", got)
	}
	if got := d.ValidPages(badBlock); got != 0 {
		t.Errorf("ValidPages(out of range) = %d, want 0", got)
	}
	if got := d.InvalidPages(badBlock); got != 0 {
		t.Errorf("InvalidPages(out of range) = %d, want 0", got)
	}
	if got := d.EraseCount(badBlock); got != 0 {
		t.Errorf("EraseCount(out of range) = %d, want 0", got)
	}

	// In-range values still come through.
	if got := d.PeekOOB(goodPPN); got.LPN != 42 || got.Tag != 7 {
		t.Errorf("PeekOOB(in range) = %+v", got)
	}
	if got := d.ValidPages(0); got != 1 {
		t.Errorf("ValidPages(0) = %d, want 1", got)
	}

	// Mutating operations keep reporting ErrOutOfRange.
	if _, _, err := d.Read(badPPN); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Read(out of range) = %v, want ErrOutOfRange", err)
	}
	if _, err := d.Program(badPPN, OOB{}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Program(out of range) = %v, want ErrOutOfRange", err)
	}
	if err := d.Invalidate(badPPN); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Invalidate(out of range) = %v, want ErrOutOfRange", err)
	}
	if _, err := d.Erase(badBlock); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Erase(out of range) = %v, want ErrOutOfRange", err)
	}
}

// TestBurstWindow: BeginBurst/BurstStart/BurstFinish bracket only the
// operations scheduled since the mark, across chips.
func TestBurstWindow(t *testing.T) {
	cfg := twoChipConfig()
	d := MustNewDevice(cfg)
	// Pre-burst work on chip 0 must not leak into the next window.
	c0, err := d.Program(cfg.PPNForBlockPage(0, 0), OOB{})
	if err != nil {
		t.Fatal(err)
	}
	d.BeginBurst()
	if d.BurstOps() != 0 || d.BurstStart() != 0 || d.BurstFinish() != 0 {
		t.Fatalf("fresh burst not empty: ops=%d start=%v fin=%v",
			d.BurstOps(), d.BurstStart(), d.BurstFinish())
	}
	// Chip 0 queues behind the pre-burst program; chip 1 starts at now=0.
	c0b, err := d.Program(cfg.PPNForBlockPage(0, 1), OOB{})
	if err != nil {
		t.Fatal(err)
	}
	chip1Block := BlockID(cfg.BlocksPerChip)
	if _, err := d.Program(cfg.PPNForBlockPage(chip1Block, 0), OOB{}); err != nil {
		t.Fatal(err)
	}
	if got := d.BurstOps(); got != 2 {
		t.Errorf("burst ops = %d, want 2", got)
	}
	if got := d.BurstStart(); got != 0 {
		t.Errorf("burst start = %v, want 0 (idle chip 1 started immediately)", got)
	}
	if want := c0 + c0b; d.BurstFinish() != want {
		t.Errorf("burst finish = %v, want queued chip 0 finish %v", d.BurstFinish(), want)
	}
}
