package vblock

import (
	"testing"

	"ppbflash/internal/nand"
)

func multiChipConfig(chips int) nand.Config {
	cfg := testConfig()
	cfg.Chips = chips
	return cfg
}

// TestAllocateFirstStripesAcrossChips: consecutive allocations rotate
// round-robin over the chips, lowest block first within each chip.
func TestAllocateFirstStripesAcrossChips(t *testing.T) {
	cfg := multiChipConfig(3)
	m, err := NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	perChip := cfg.BlocksPerChip
	want := []nand.BlockID{
		0, nand.BlockID(perChip), nand.BlockID(2 * perChip), // chips 0,1,2
		1, nand.BlockID(perChip + 1), nand.BlockID(2*perChip + 1),
	}
	for i, w := range want {
		vb, err := m.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if vb.Block != w {
			t.Fatalf("allocation %d = block %d, want %d", i, vb.Block, w)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateFirstSkipsDrainedChips: when one chip's free heap empties,
// the rotation skips it without failing until every heap is empty.
func TestAllocateFirstSkipsDrainedChips(t *testing.T) {
	cfg := multiChipConfig(2)
	m, err := NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.TotalBlocks()
	seen := make(map[nand.BlockID]bool)
	for i := 0; i < total; i++ {
		vb, err := m.AllocateFirst(0)
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		if seen[vb.Block] {
			t.Fatalf("block %d allocated twice", vb.Block)
		}
		seen[vb.Block] = true
	}
	if _, err := m.AllocateFirst(0); err == nil {
		t.Fatal("exhausted pool should fail")
	}
	if m.FreeBlocks() != 0 {
		t.Errorf("free count = %d after exhaustion", m.FreeBlocks())
	}
}

// TestSingleChipKeepsLowestFirstOrder pins the Chips=1 degenerate case:
// the striped pool must behave exactly like the original single heap,
// which is what keeps every existing figure bit-identical.
func TestSingleChipKeepsLowestFirstOrder(t *testing.T) {
	m := newTestManager(t, 1)
	for want := 0; want < 3; want++ {
		vb, err := m.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if int(vb.Block) != want {
			t.Fatalf("allocation %d = block %d, want lowest-first", want, vb.Block)
		}
	}
}

// TestFreedBlockReturnsToItsChip: a released block re-enters its own
// chip's heap and is handed out again when the rotation reaches the chip.
func TestFreedBlockReturnsToItsChip(t *testing.T) {
	cfg := multiChipConfig(2)
	cfg.PagesPerBlock = 2
	cfg.Layers = 2
	m, err := NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := m.AllocateFirst(0) // block 0, chip 0
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.PagesPerBlock; p++ {
		if _, err := m.Advance(vb.Block); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Release(vb.Block); err != nil {
		t.Fatal(err)
	}
	if got := m.free[0].Len(); got != cfg.BlocksPerChip {
		t.Errorf("chip 0 free = %d, want %d", got, cfg.BlocksPerChip)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
