package nand

import (
	"errors"
	"runtime"
	"testing"
)

// TestLargestLPNRoundTrip: the largest LPN the page word holds, with tag
// 255, comes back whole from Read and PeekOOB.
func TestLargestLPNRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	want := OOB{LPN: maxLPN, Tag: 255}
	if _, err := d.Program(0, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Read(0)
	if err != nil || got != want {
		t.Fatalf("Read = %+v, %v; want %+v", got, err, want)
	}
	if got := d.PeekOOB(0); got != want {
		t.Errorf("PeekOOB = %+v, want %+v", got, want)
	}
	if got := d.State(0); got != PageValid {
		t.Errorf("State = %v, want valid", got)
	}
}

// TestProgramRejectsLPNPastLimit: one LPN past the limit fails with
// ErrOutOfRange instead of being truncated, and leaves the page free and
// the block's counters and the device's stats as they were.
func TestProgramRejectsLPNPastLimit(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Program(0, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	blk, programs := d.blocks[0], d.Stats().Programs.Value()
	if _, err := d.Program(1, OOB{LPN: maxLPN + 1, Tag: 9}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Program(maxLPN+1) = %v, want ErrOutOfRange", err)
	}
	if got := d.State(1); got != PageFree {
		t.Errorf("State = %v, want free", got)
	}
	if got := d.PeekOOB(1); got != (OOB{}) {
		t.Errorf("PeekOOB = %+v, want zero", got)
	}
	if d.blocks[0] != blk || d.Stats().Programs.Value() != programs {
		t.Errorf("block %+v programs %d after the failed program, want %+v and %d",
			d.blocks[0], d.Stats().Programs.Value(), blk, programs)
	}
	if err := d.CheckAccounting(); err != nil {
		t.Error(err)
	}
	// The page is still the next one to program.
	if _, err := d.Program(1, OOB{LPN: maxLPN}); err != nil {
		t.Errorf("Program(maxLPN) after the failure: %v", err)
	}
}

// TestInvalidateKeepsOOB: invalidating a page changes only its state.
func TestInvalidateKeepsOOB(t *testing.T) {
	d := newTestDevice(t)
	want := OOB{LPN: maxLPN - 3, Tag: 200}
	if _, err := d.Program(0, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if got := d.PeekOOB(0); got != want {
		t.Errorf("PeekOOB = %+v, want %+v", got, want)
	}
	if got, _, err := d.Read(0); err != nil || got != want {
		t.Errorf("Read = %+v, %v; want %+v", got, err, want)
	}
}

// TestEraseZeroesPages: Erase returns every page of the block to free
// with a zero OOB, and leaves its neighbours alone.
func TestEraseZeroesPages(t *testing.T) {
	d := newTestDevice(t)
	ppb := d.cfg.PagesPerBlock
	for b := BlockID(0); b < 2; b++ {
		for p := 0; p < ppb; p++ {
			if _, err := d.Program(d.cfg.PPNForBlockPage(b, p), OOB{LPN: uint64(p) + 1, Tag: 255}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p := 0; p < ppb; p++ {
		if err := d.Invalidate(PPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ppb; p++ {
		if s, oob := d.State(PPN(p)), d.PeekOOB(PPN(p)); s != PageFree || oob != (OOB{}) {
			t.Errorf("erased page %d: %v %+v, want free and zero", p, s, oob)
		}
		next := d.cfg.PPNForBlockPage(1, p)
		if s, oob := d.State(next), d.PeekOOB(next); s != PageValid || oob.LPN != uint64(p)+1 {
			t.Errorf("neighbour page %d: %v %+v, want valid with LPN %d", p, s, oob, p+1)
		}
	}
	if err := d.CheckAccounting(); err != nil {
		t.Error(err)
	}
}

// TestNewDeviceAllocsIndependentOfBlocks: the page words and the block
// counters are one allocation each, so the allocation count does not
// grow with the block count.
func TestNewDeviceAllocsIndependentOfBlocks(t *testing.T) {
	small, large := testConfig(), testConfig()
	large.BlocksPerChip *= 8
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := NewDevice(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("NewDevice allocs: %v at %d blocks, %v at %d blocks",
			a, small.TotalBlocks(), b, large.TotalBlocks())
	}
}

// TestNewDeviceFootprint: at paper scale the device's state is its 8-byte
// page words plus a small per-block and per-page-index remainder, under
// 35 MB for the Table 1 device's 4,194,048 pages.
func TestNewDeviceFootprint(t *testing.T) {
	cfg := TableOneConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDevice(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	if words := 8 * cfg.TotalPages(); grew < words || grew > 35e6 {
		t.Errorf("NewDevice(Table 1) allocated %d bytes, want %d for the page words and at most 35e6 in all",
			grew, words)
	}
	runtime.KeepAlive(d)
}
