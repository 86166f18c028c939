package vblock

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ppbflash/internal/nand"
)

// fakeClock is a ChipClock over a fixed per-chip free-time table.
type fakeClock []time.Duration

func (c fakeClock) ChipFree(chip int) time.Duration { return c[chip] }

func dispatchManager(t *testing.T, chips, pools int) *Manager {
	t.Helper()
	cfg := multiChipConfig(chips)
	m, err := NewManager(cfg, 1, pools)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStripedPolicyMatchesDefault: a manager with an explicit Striped
// policy allocates in exactly the same order as an untouched manager —
// the policy refactor must not move a single block.
func TestStripedPolicyMatchesDefault(t *testing.T) {
	def := dispatchManager(t, 3, 1)
	explicit := dispatchManager(t, 3, 1)
	explicit.SetDispatch(Striped, fakeClock{0, 0, 0})
	for i := 0; i < def.cfg.TotalBlocks(); i++ {
		a, err := def.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := explicit.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Block != b.Block {
			t.Fatalf("allocation %d: default block %d, explicit striped block %d", i, a.Block, b.Block)
		}
	}
}

// TestLeastLoadedFollowsClock: allocations land on the chip whose clock
// frees earliest, ties to the lowest chip index.
func TestLeastLoadedFollowsClock(t *testing.T) {
	m := dispatchManager(t, 3, 1)
	clock := fakeClock{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	m.SetDispatch(LeastLoaded, clock)
	perChip := m.cfg.BlocksPerChip
	vb, err := m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.chipOf(vb.Block), 1; got != want {
		t.Errorf("first allocation on chip %d, want idlest chip %d", got, want)
	}
	// Busy chips stay untouched while the idle chip has free blocks.
	for i := 1; i < perChip; i++ {
		vb, err = m.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.chipOf(vb.Block) != 1 {
			t.Fatalf("allocation %d on chip %d, want 1", i, m.chipOf(vb.Block))
		}
	}
	// Chip 1 drained: next best clock is chip 2.
	vb, err = m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.chipOf(vb.Block), 2; got != want {
		t.Errorf("post-drain allocation on chip %d, want %d", got, want)
	}
	// Equal clocks tie toward the lowest chip index.
	m2 := dispatchManager(t, 3, 1)
	m2.SetDispatch(LeastLoaded, fakeClock{time.Second, time.Second, time.Second})
	vb, err = m2.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.chipOf(vb.Block); got != 0 {
		t.Errorf("tied clocks allocated on chip %d, want lowest (0)", got)
	}
}

// TestHotColdAffinitySplitsChips: hot pools fill the hot chip prefix,
// cold pools the rest; each side prefers its subset's idlest chip.
func TestHotColdAffinitySplitsChips(t *testing.T) {
	m := dispatchManager(t, 4, 2)
	m.MarkHotPools(0)
	m.SetDispatch(HotColdAffinity, fakeClock{time.Millisecond, 0, time.Millisecond, 0})
	hot, err := m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(hot.Block); got != 1 {
		t.Errorf("hot pool allocated on chip %d, want idlest hot chip 1", got)
	}
	cold, err := m.AllocateFirst(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(cold.Block); got != 3 {
		t.Errorf("cold pool allocated on chip %d, want idlest cold chip 3", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHotColdAffinityWidensWhenSubsetDrained: a drained subset must not
// strand the other chips' free space — the pool spills across the split.
func TestHotColdAffinityWidensWhenSubsetDrained(t *testing.T) {
	m := dispatchManager(t, 2, 2)
	m.MarkHotPools(0)
	m.SetDispatch(HotColdAffinity, fakeClock{0, 0})
	perChip := m.cfg.BlocksPerChip
	for i := 0; i < perChip; i++ {
		vb, err := m.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.chipOf(vb.Block) != 0 {
			t.Fatalf("hot allocation %d on chip %d, want 0", i, m.chipOf(vb.Block))
		}
	}
	vb, err := m.AllocateFirst(0) // hot subset drained: widen to chip 1
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(vb.Block); got != 1 {
		t.Errorf("overflow hot allocation on chip %d, want widened 1", got)
	}
}

// TestHotColdAffinityDegeneratesOnOneChip: with a single chip every pool
// lands on chip 0 — bit-identical to striping by construction.
func TestHotColdAffinityDegeneratesOnOneChip(t *testing.T) {
	m, err := NewManager(testConfig(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.MarkHotPools(0)
	m.SetDispatch(HotColdAffinity, fakeClock{0})
	for want := 0; want < 3; want++ {
		pool := want % 2
		vb, err := m.AllocateFirst(pool)
		if err != nil {
			t.Fatal(err)
		}
		if int(vb.Block) != want {
			t.Fatalf("allocation %d (pool %d) = block %d, want lowest-first", want, pool, vb.Block)
		}
	}
}

// TestMarkHotPools pins the pool hotness bookkeeping, including that
// out-of-range pool indices are ignored.
func TestMarkHotPools(t *testing.T) {
	m := dispatchManager(t, 2, 3)
	m.MarkHotPools(0, 2, -1, 3)
	for pool, want := range []bool{true, false, true} {
		if got := m.hotPool[pool]; got != want {
			t.Errorf("pool %d hot = %v, want %v", pool, got, want)
		}
	}
}

// TestDispatchByName resolves every built-in policy and rejects unknown
// names.
func TestDispatchByName(t *testing.T) {
	for _, name := range DispatchPolicyNames {
		p, err := DispatchByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.String() != name {
			t.Errorf("DispatchByName(%q).String() = %q", name, p)
		}
	}
	if p, err := DispatchByName(""); err != nil || p != Striped {
		t.Errorf("empty name = %v, %v; want striped default", p, err)
	}
	if p, err := DispatchByName("hotcold"); err != nil || p != HotColdAffinity {
		t.Errorf("hotcold shorthand = %v, %v", p, err)
	}
	if _, err := DispatchByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestDeviceSatisfiesChipClock pins the structural contract the ftl
// wiring relies on: the device satisfies vblock.ChipClock.
func TestDeviceSatisfiesChipClock(t *testing.T) {
	dev := nand.MustNewDevice(multiChipConfig(2))
	var _ ChipClock = dev
}

// TestStripedBoundedOnDrainedPools: the striped rotation runs at most
// one full lap over the chips. With every chip's free pool drained it
// returns -1 instead of spinning forever, and an allocation hitting that
// state with a free count that says otherwise fails loudly instead of
// hanging the simulation or popping from an empty heap.
func TestStripedBoundedOnDrainedPools(t *testing.T) {
	m := dispatchManager(t, 3, 1)
	for i := 0; i < m.cfg.TotalBlocks(); i++ {
		if _, err := m.AllocateFirst(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.pickChip(0); got != -1 {
		t.Errorf("pickChip on drained pools = %d, want -1", got)
	}
	if _, err := m.AllocateFirst(0); !errors.Is(err, ErrNoFreeBlocks) {
		t.Errorf("AllocateFirst on empty pool = %v, want ErrNoFreeBlocks", err)
	}
	// Corrupt the cached free count so AllocateFirst reaches the
	// dispatch path with genuinely drained heaps: the rotation's -1 must
	// surface as an error, not an infinite rotation.
	m.freeCnt = 1
	_, err := m.AllocateFirst(0)
	if err == nil || !strings.Contains(err.Error(), "free accounting corrupt") {
		t.Errorf("AllocateFirst with corrupt accounting = %v, want loud corruption error", err)
	}
}

// TestTenantPartitionOwnsRanges: with n tenants over c chips, tenant t's
// allocations land in its contiguous range [t*c/n, (t+1)*c/n), idlest
// chip first within the range.
func TestTenantPartitionOwnsRanges(t *testing.T) {
	m := dispatchManager(t, 4, 1)
	m.SetTenants(2)
	m.SetDispatch(TenantPartition, fakeClock{time.Millisecond, 0, time.Millisecond, 0})
	m.SetActiveTenant(0)
	vb, err := m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(vb.Block); got != 1 {
		t.Errorf("tenant 0 allocated on chip %d, want idlest owned chip 1", got)
	}
	m.SetActiveTenant(1)
	vb, err = m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(vb.Block); got != 3 {
		t.Errorf("tenant 1 allocated on chip %d, want idlest owned chip 3", got)
	}
	// A stray tenant ID clamps to the last tenant instead of breaking out
	// of the chip range.
	m.SetActiveTenant(99)
	vb, err = m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(vb.Block); got != 3 {
		t.Errorf("clamped tenant allocated on chip %d, want 3", got)
	}
}

// TestTenantPartitionWidensWhenDrained: a drained partition spills onto
// the other tenants' chips rather than failing the allocation.
func TestTenantPartitionWidensWhenDrained(t *testing.T) {
	m := dispatchManager(t, 2, 1)
	m.SetTenants(2)
	m.SetDispatch(TenantPartition, fakeClock{0, 0})
	m.SetActiveTenant(0)
	perChip := m.cfg.BlocksPerChip
	for i := 0; i < perChip; i++ {
		vb, err := m.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if m.chipOf(vb.Block) != 0 {
			t.Fatalf("tenant 0 allocation %d on chip %d, want 0", i, m.chipOf(vb.Block))
		}
	}
	vb, err := m.AllocateFirst(0) // partition drained: widen
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(vb.Block); got != 1 {
		t.Errorf("overflow allocation on chip %d, want widened 1", got)
	}
}

// TestTenantPartitionSingleTenantMatchesLeastLoaded: without a declared
// tenant population the policy is exactly LeastLoaded — the identity the
// single-tenant bit-identity ladder rests on.
func TestTenantPartitionSingleTenantMatchesLeastLoaded(t *testing.T) {
	clock := fakeClock{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	part := dispatchManager(t, 3, 1)
	part.SetDispatch(TenantPartition, clock)
	ll := dispatchManager(t, 3, 1)
	ll.SetDispatch(LeastLoaded, clock)
	for i := 0; i < part.cfg.TotalBlocks(); i++ {
		a, err := part.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ll.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Block != b.Block {
			t.Fatalf("allocation %d: tenant-partition block %d, least-loaded block %d", i, a.Block, b.Block)
		}
	}
}

// TestHotColdAffinityTenantSlicing: on a multi-tenant manager the hot
// and cold subsets are sliced per tenant; with tenants undeclared the
// subset is shared exactly as before.
func TestHotColdAffinityTenantSlicing(t *testing.T) {
	m := dispatchManager(t, 4, 2)
	m.MarkHotPools(0)
	m.SetTenants(2)
	// Hot subset = chips {0,1}, cold = {2,3}; chip 0 and 2 idle.
	m.SetDispatch(HotColdAffinity, fakeClock{0, 0, 0, 0})
	m.SetActiveTenant(1)
	hot, err := m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(hot.Block); got != 1 {
		t.Errorf("tenant 1 hot allocation on chip %d, want its hot slice chip 1", got)
	}
	cold, err := m.AllocateFirst(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(cold.Block); got != 3 {
		t.Errorf("tenant 1 cold allocation on chip %d, want its cold slice chip 3", got)
	}
	m.SetActiveTenant(0)
	hot, err = m.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.chipOf(hot.Block); got != 0 {
		t.Errorf("tenant 0 hot allocation on chip %d, want its hot slice chip 0", got)
	}
}

// TestTenantRange pins the slicing math, including the more-tenants-
// than-chips case where neighbors share a chip.
func TestTenantRange(t *testing.T) {
	for _, tc := range []struct {
		lo, hi, t, n   int
		wantLo, wantHi int
	}{
		{0, 4, 0, 2, 0, 2},
		{0, 4, 1, 2, 2, 4},
		{2, 4, 0, 2, 2, 3},
		{2, 4, 1, 2, 3, 4},
		{0, 2, 0, 4, 0, 1}, // more tenants than chips: share
		{0, 2, 3, 4, 1, 2},
		{0, 3, 1, 2, 1, 3},
	} {
		lo, hi := tenantRange(tc.lo, tc.hi, tc.t, tc.n)
		if lo != tc.wantLo || hi != tc.wantHi {
			t.Errorf("tenantRange(%d, %d, t%d/%d) = [%d, %d), want [%d, %d)",
				tc.lo, tc.hi, tc.t, tc.n, lo, hi, tc.wantLo, tc.wantHi)
		}
	}
}
