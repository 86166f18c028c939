package vblock

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ppbflash/internal/nand"
)

func testConfig() nand.Config {
	return nand.Config{
		PageSize:            4096,
		PagesPerBlock:       8,
		BlocksPerChip:       6,
		Chips:               1,
		Layers:              4,
		SpeedRatio:          2,
		ReadLatency:         40 * time.Microsecond,
		ProgramLatency:      400 * time.Microsecond,
		EraseLatency:        4 * time.Millisecond,
		TransferBytesPerSec: 512e6,
	}
}

const (
	poolHot  = 0
	poolCold = 1
)

func newTestManager(t *testing.T, k int) *Manager {
	t.Helper()
	m, err := NewManager(testConfig(), k, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := NewManager(cfg, 0, 2); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NewManager(cfg, 3, 2); err == nil {
		t.Error("odd k>1 should fail")
	}
	if _, err := NewManager(cfg, 16, 2); err == nil {
		t.Error("k not dividing pages should fail")
	}
	if _, err := NewManager(cfg, 1, 2); err != nil {
		t.Errorf("k=1 (no split) should be allowed: %v", err)
	}
	if _, err := NewManager(cfg, 8, 2); err != nil {
		t.Errorf("k=8: %v", err)
	}
}

func TestPartGeometry(t *testing.T) {
	m := newTestManager(t, 2)
	if s, e := m.PartRange(0); s != 0 || e != 4 {
		t.Errorf("part 0 = [%d,%d), want [0,4)", s, e)
	}
	if s, e := m.PartRange(1); s != 4 || e != 8 {
		t.Errorf("part 1 = [%d,%d), want [4,8)", s, e)
	}
	if m.PartOf(3) != 0 || m.PartOf(4) != 1 {
		t.Error("PartOf wrong")
	}
	if m.FastPart(0) || !m.FastPart(1) {
		t.Error("with k=2: part 0 slow, part 1 fast")
	}
	m4 := newTestManager(t, 4)
	if m4.FastPart(1) || !m4.FastPart(2) {
		t.Error("with k=4: parts 0,1 slow; 2,3 fast")
	}
	m1 := newTestManager(t, 1)
	if m1.FastPart(0) {
		t.Error("with k=1 there is no fast part")
	}
}

func TestAllocateFirstLowestBlockFirst(t *testing.T) {
	m := newTestManager(t, 2)
	vb, err := m.AllocateFirst(poolHot)
	if err != nil {
		t.Fatal(err)
	}
	if vb.Block != 0 || vb.Part != 0 {
		t.Errorf("first allocation = %v, want block 0 part 0", vb)
	}
	if vb.ID(2) != 0 {
		t.Errorf("VB id = %d, want 0", vb.ID(2))
	}
	vb2, err := m.AllocateFirst(poolCold)
	if err != nil {
		t.Fatal(err)
	}
	if vb2.Block != 1 {
		t.Errorf("second allocation = %v, want block 1", vb2)
	}
	if vb2.ID(2) != 2 {
		t.Errorf("VB id = %d, want 2 (paper numbering: block*2)", vb2.ID(2))
	}
	if a, ok := m.PoolOf(0); !ok || a != poolHot {
		t.Error("block 0 should be hot-owned")
	}
	if a, ok := m.PoolOf(1); !ok || a != poolCold {
		t.Error("block 1 should be cold-owned")
	}
	if _, ok := m.PoolOf(2); ok {
		t.Error("block 2 should be free")
	}
	if m.FreeBlocks() != 4 {
		t.Errorf("free = %d, want 4", m.FreeBlocks())
	}
}

func TestAllocateFirstExhaustion(t *testing.T) {
	m := newTestManager(t, 2)
	for i := 0; i < 6; i++ {
		if _, err := m.AllocateFirst(poolHot); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AllocateFirst(poolHot); !errors.Is(err, ErrNoFreeBlocks) {
		t.Errorf("err = %v, want ErrNoFreeBlocks", err)
	}
}

// fill programs n pages through Advance, asserting no error.
func fill(t *testing.T, m *Manager, b nand.BlockID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Advance(b); err != nil {
			t.Fatal(err)
		}
	}
}

// wantWritePoint asserts the pool's write point of the speed group: the
// block when ok, none otherwise.
func wantWritePoint(t *testing.T, m *Manager, pool int, fast bool, b nand.BlockID, ok bool) {
	t.Helper()
	got, gotOK := m.Open(pool, fast)
	if gotOK != ok || (ok && got != b) {
		t.Fatalf("Open(%d, fast=%v) = %d %v, want %d %v", pool, fast, got, gotOK, b, ok)
	}
}

func TestLifecycleFigureNine(t *testing.T) {
	m := newTestManager(t, 2)
	vb, err := m.AllocateFirst(poolHot)
	if err != nil {
		t.Fatal(err)
	}
	b := vb.Block

	// While VB 2n is filling, VB 2n+1 must not be allocatable.
	fill(t, m, b, 3)
	if _, ok := m.OpenPendingGroup(poolHot, true); ok {
		t.Fatal("fast VB opened before slow VB was full")
	}
	// Page 3 fills part 0: the slow write point closes and the block
	// waits in the pending queue, not full.
	fill(t, m, b, 1)
	wantWritePoint(t, m, poolHot, false, 0, false)
	if m.blocks[b].phase == phaseFull || m.IsOpen(b) {
		t.Fatalf("part 0 fill: full=%v open=%v, want pending", m.blocks[b].phase == phaseFull, m.IsOpen(b))
	}
	// Advancing past the open part without allocating the next one fails.
	if _, err := m.Advance(b); !errors.Is(err, ErrNoOpenPart) {
		t.Fatalf("advance without open part: %v", err)
	}
	// Now the fast VB is pending for the same area only.
	if _, ok := m.OpenPendingGroup(poolCold, true); ok {
		t.Fatal("fast VB must only be allocatable by the owning area")
	}
	if m.PendingCountGroup(poolHot, true) != 1 {
		t.Fatalf("pending = %d", m.PendingCountGroup(poolHot, true))
	}
	fast, ok := m.OpenPendingGroup(poolHot, true)
	if !ok || fast.Block != b || fast.Part != 1 {
		t.Fatalf("pending open = %v %v", fast, ok)
	}
	wantWritePoint(t, m, poolHot, true, b, true)
	// Filling the fast part completes the block.
	fill(t, m, b, 4)
	wantWritePoint(t, m, poolHot, true, 0, false)
	if m.blocks[b].phase != phaseFull || m.fullCnt != 1 {
		t.Fatal("block should be full")
	}
	if _, err := m.Advance(b); !errors.Is(err, ErrBlockFull) {
		t.Fatalf("advance full block: %v", err)
	}
	// Release after (simulated) GC returns it to the free pool.
	if err := m.Release(b); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 6 || m.fullCnt != 0 {
		t.Error("release did not return block")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceErrors(t *testing.T) {
	m := newTestManager(t, 2)
	if _, err := m.Advance(0); err == nil {
		t.Error("advance on free block should fail")
	}
}

// TestReleasePartialBlock: Release takes any owned block, full or not.
// Releasing a block still open for writes frees it and clears its
// write point; releasing it again, or releasing a retired block, fails.
func TestReleasePartialBlock(t *testing.T) {
	m := newTestManager(t, 2)
	vb, _ := m.AllocateFirst(poolHot)
	fill(t, m, vb.Block, 2)
	if err := m.Release(vb.Block); err != nil {
		t.Fatalf("release partial block: %v", err)
	}
	if m.FreeBlocks() != 6 {
		t.Error("release did not free block")
	}
	wantWritePoint(t, m, poolHot, false, 0, false)
	if err := m.Release(vb.Block); err == nil {
		t.Error("double release should fail")
	}
	vb, _ = m.AllocateFirst(poolHot)
	if err := m.Retire(vb.Block); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(vb.Block); err == nil {
		t.Error("releasing a retired block should fail")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseScrubsPendingQueue(t *testing.T) {
	m := newTestManager(t, 2)
	vb, _ := m.AllocateFirst(poolCold)
	fill(t, m, vb.Block, 4) // part 0 full -> pending
	if m.PendingCountGroup(poolCold, true) != 1 {
		t.Fatal("not pending")
	}
	if err := m.Release(vb.Block); err != nil {
		t.Fatal(err)
	}
	if m.PendingCountGroup(poolCold, true) != 0 {
		t.Error("pending queue not scrubbed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReusedBlockStartsClean(t *testing.T) {
	m := newTestManager(t, 2)
	vb, _ := m.AllocateFirst(poolHot)
	fill(t, m, vb.Block, 4)
	fast, _ := m.OpenPendingGroup(poolHot, true)
	fill(t, m, fast.Block, 4)
	if err := m.Release(vb.Block); err != nil {
		t.Fatal(err)
	}
	// Reallocate: same block (lowest number), opposite area, clean state.
	vb2, err := m.AllocateFirst(poolCold)
	if err != nil {
		t.Fatal(err)
	}
	if vb2.Block != vb.Block {
		t.Fatalf("expected block reuse, got %v", vb2)
	}
	if m.blocks[vb2.Block].cursor != 0 {
		t.Error("cursor not reset")
	}
	if a, _ := m.PoolOf(vb2.Block); a != poolCold {
		t.Error("area not reassigned")
	}
}

func TestKEqualsFourOrdering(t *testing.T) {
	m := newTestManager(t, 4) // 2 pages per part
	vb, _ := m.AllocateFirst(poolHot)
	b := vb.Block
	if vb.End-vb.Start != 2 {
		t.Fatalf("part length = %d", vb.End-vb.Start)
	}
	for part := 1; part < 4; part++ {
		fill(t, m, b, 2)
		fast := m.FastPart(part)
		if _, ok := m.OpenPendingGroup(poolHot, !fast); ok {
			t.Fatalf("part %d opened from the wrong speed group", part)
		}
		next, ok := m.OpenPendingGroup(poolHot, fast)
		if !ok || next.Part != part {
			t.Fatalf("expected part %d pending, got %v %v", part, next, ok)
		}
		wantWritePoint(t, m, poolHot, fast, b, true)
	}
	fill(t, m, b, 2)
	if m.blocks[b].phase != phaseFull {
		t.Fatal("block should be full after all parts")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFullAndOwned(t *testing.T) {
	m := newTestManager(t, 2)
	a, _ := m.AllocateFirst(poolHot)
	fill(t, m, a.Block, 4)
	f, _ := m.OpenPendingGroup(poolHot, true)
	fill(t, m, f.Block, 4)
	b, _ := m.AllocateFirst(poolCold)
	_ = b

	var fulls, owned []nand.BlockID
	m.ForEachFull(func(id nand.BlockID) bool { fulls = append(fulls, id); return true })
	m.ForEachOwned(func(id nand.BlockID) bool { owned = append(owned, id); return true })
	if len(fulls) != 1 || fulls[0] != a.Block {
		t.Errorf("fulls = %v", fulls)
	}
	if len(owned) != 2 {
		t.Errorf("owned = %v", owned)
	}
	// Early termination.
	count := 0
	m.ForEachOwned(func(nand.BlockID) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestVBStringAndID(t *testing.T) {
	v := VB{Block: 3, Part: 1, Start: 4, End: 8}
	if v.ID(2) != 7 {
		t.Errorf("ID = %d, want 7 (2N+1 numbering)", v.ID(2))
	}
	if s := v.String(); !strings.Contains(s, "b3") || !strings.Contains(s, "4-7") {
		t.Errorf("String = %q", s)
	}
}

// Property: random alloc/advance/release sequences keep manager
// invariants and never let one block serve two areas.
func TestPropertyManagerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		m, err := NewManager(cfg, 2, 2)
		if err != nil {
			return false
		}
		areaOf := make(map[nand.BlockID]int)
		var active []nand.BlockID
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0:
				area := rng.Intn(2)
				vb, err := m.AllocateFirst(area)
				if err == nil {
					if prev, seen := areaOf[vb.Block]; seen && prev != area {
						// reallocation after release may change area; update
					}
					areaOf[vb.Block] = area
					active = append(active, vb.Block)
				}
			case 1:
				area := rng.Intn(2)
				if vb, ok := m.OpenPendingGroup(area, true); ok {
					if got, _ := m.PoolOf(vb.Block); got != area {
						t.Logf("pending open crossed areas")
						return false
					}
				}
			case 2:
				if len(active) > 0 {
					b := active[rng.Intn(len(active))]
					if m.blocks[b].phase != phaseFull {
						_, err := m.Advance(b)
						if err != nil && !errors.Is(err, ErrNoOpenPart) {
							t.Logf("advance: %v", err)
							return false
						}
					}
				}
			case 3:
				if len(active) > 0 {
					i := rng.Intn(len(active))
					b := active[i]
					if m.blocks[b].phase == phaseFull {
						if err := m.Release(b); err != nil {
							t.Logf("release: %v", err)
							return false
						}
						active = append(active[:i], active[i+1:]...)
						delete(areaOf, b)
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fullFill allocates a block for the pool and programs it to full
// (slow part, then the pending fast part of the same block).
func fullFill(t *testing.T, m *Manager, pool int) nand.BlockID {
	t.Helper()
	vb, err := m.AllocateFirst(pool)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, m, vb.Block, 4)
	fast, ok := m.OpenPendingGroup(pool, true)
	if !ok || fast.Block != vb.Block {
		t.Fatalf("pending after slow fill = %v %v", fast, ok)
	}
	fill(t, m, vb.Block, 4)
	return vb.Block
}

// TestRetireLifecycle pins bad-block retirement semantics: a retired
// block leaves every structure (pool, pending queue, victim index, full
// count), is never reallocated, and the manager stays consistent.
func TestRetireLifecycle(t *testing.T) {
	m := newTestManager(t, 2)
	if err := m.Retire(0); err == nil {
		t.Error("retiring a free block must fail")
	}

	full := fullFill(t, m, poolHot)
	m.NoteInvalidated(full)
	if err := m.Retire(full); err != nil {
		t.Fatal(err)
	}
	if m.retired != 1 {
		t.Errorf("retired = %d, want 1", m.retired)
	}
	if m.fullCnt != 0 {
		t.Errorf("full count = %d after retiring the full block", m.fullCnt)
	}
	if _, ok := m.PoolOf(full); ok {
		t.Error("retired block still pool-owned")
	}
	if err := m.Retire(full); err != nil {
		t.Errorf("double retire must be a no-op: %v", err)
	}
	if m.retired != 1 {
		t.Error("double retire double-counted")
	}
	m.NoteInvalidated(full) // must not resurrect it in the victim index
	if v, ok := m.PickVictim(false, func(nand.BlockID) uint32 { return 0 }, 0); ok {
		t.Errorf("victim %d found, want none (only candidate is retired)", v)
	}
	if err := m.Retire(full); err != nil {
		t.Fatal(err)
	}

	// A partially-filled block with a pending fast part retires too, and
	// its queue entry is scrubbed.
	vb, err := m.AllocateFirst(poolCold)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, m, vb.Block, 4)
	if m.PendingCountGroup(poolCold, true) != 1 {
		t.Fatal("setup: fast part not pending")
	}
	if err := m.Retire(vb.Block); err != nil {
		t.Fatal(err)
	}
	if m.PendingCountGroup(poolCold, true) != 0 {
		t.Error("pending queue not scrubbed on retire")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Retired capacity is gone: with 2 of 6 blocks retired, only 4
	// allocations can ever succeed, and neither is a retired block.
	for i := 0; i < 4; i++ {
		got, err := m.AllocateFirst(poolHot)
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		if got.Block == full || got.Block == vb.Block {
			t.Fatalf("retired block %d reallocated", got.Block)
		}
	}
	if _, err := m.AllocateFirst(poolHot); !errors.Is(err, ErrNoFreeBlocks) {
		t.Errorf("allocation past the retired capacity: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPickVictimWearAware pins the relaxed victim rule: the least-worn
// block within the invalid-count window wins over a more-invalid but
// hotter block, window 0 is greedy with a wear tie-break, and a window
// holding no eligible block falls through to the first lower bucket
// that has one.
func TestPickVictimWearAware(t *testing.T) {
	m := newTestManager(t, 2)
	b0 := fullFill(t, m, poolHot) // 3 invalid, wear 10
	b1 := fullFill(t, m, poolHot) // 2 invalid, wear 1
	b2 := fullFill(t, m, poolHot) // 2 invalid, wear 5
	for i := 0; i < 3; i++ {
		m.NoteInvalidated(b0)
	}
	for i := 0; i < 2; i++ {
		m.NoteInvalidated(b2) // b2 heads bucket 2, so the tie-break must look past it
		m.NoteInvalidated(b1)
	}
	wear := map[nand.BlockID]uint32{b0: 10, b1: 1, b2: 5}
	wearFn := func(b nand.BlockID) uint32 { return wear[b] }

	// Window 0: greedy — the most-invalid block wins despite its wear.
	if v, ok := m.PickVictim(true, wearFn, 0); !ok || v != b0 {
		t.Errorf("window 0 victim = %v %v, want greedy %d", v, ok, b0)
	}
	// Window 1 reaches one bucket down: the least-worn of {b0,b1,b2}.
	if v, ok := m.PickVictim(true, wearFn, 1); !ok || v != b1 {
		t.Errorf("window 1 victim = %v %v, want least-worn %d", v, ok, b1)
	}
	// A block still open for writes tops the index with 6 invalid pages.
	// Window 1 then spans buckets 6 and 5, which hold no eligible block;
	// the walk falls through to bucket 3 and stops there, so b0 wins
	// over the less-worn b1 one bucket further down.
	vb, err := m.AllocateFirst(poolHot)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, m, vb.Block, 4)
	if _, ok := m.OpenPendingGroup(poolHot, true); !ok {
		t.Fatal("setup: fast part not pending")
	}
	fill(t, m, vb.Block, 2)
	for i := 0; i < 6; i++ {
		m.NoteInvalidated(vb.Block)
	}
	if v, ok := m.PickVictim(false, wearFn, 1); !ok || v != b0 {
		t.Errorf("fall-through victim = %v %v, want %d", v, ok, b0)
	}
	// Window 0 below the open block: greedy again.
	if v, ok := m.PickVictim(false, wearFn, 0); !ok || v != b0 {
		t.Errorf("window 0 victim under an open top = %v %v, want %d", v, ok, b0)
	}
}

// TestIsOpen walks a block through the Figure 9 lifecycle: it is open
// exactly while an allocated part has unprogrammed pages.
func TestIsOpen(t *testing.T) {
	m := newTestManager(t, 2)
	const b = nand.BlockID(0)
	if m.IsOpen(b) {
		t.Error("free block reported open")
	}
	vb, err := m.AllocateFirst(poolHot)
	if err != nil || vb.Block != b {
		t.Fatalf("allocate = %v %v, want block %d", vb, err, b)
	}
	if !m.IsOpen(b) {
		t.Error("part 0 allocated and empty: want open")
	}
	fill(t, m, b, 3)
	if !m.IsOpen(b) {
		t.Error("part 0 partly programmed: want open")
	}
	fill(t, m, b, 1)
	if m.IsOpen(b) || m.PendingCountGroup(poolHot, true) != 1 {
		t.Error("part 0 full and pending: want not open")
	}
	if _, ok := m.OpenPendingGroup(poolHot, true); !ok {
		t.Fatal("fast part not pending")
	}
	if !m.IsOpen(b) {
		t.Error("part 1 opened: want open")
	}
	fill(t, m, b, 4)
	if m.IsOpen(b) || m.blocks[b].phase != phaseFull {
		t.Error("full block: want not open")
	}
	if err := m.Release(b); err != nil {
		t.Fatal(err)
	}
	if m.IsOpen(b) {
		t.Error("released block reported open")
	}
	if m.IsOpen(nand.BlockID(m.cfg.TotalBlocks())) {
		t.Error("out-of-range block reported open")
	}
}

// TestWritePoints pins the write-point semantics: AllocateFirst sets the
// pool's slow write point and OpenPendingGroup the write point of the
// part's group, each to the block opened last; Advance clears a write
// point only when it fills that block's part, so an older open block of
// the same pool filling leaves the newer write point alone.
func TestWritePoints(t *testing.T) {
	m := newTestManager(t, 2)
	wantWritePoint(t, m, poolHot, false, 0, false)
	wantWritePoint(t, m, poolHot, true, 0, false)
	for _, pool := range []int{-1, 2} {
		if b, ok := m.Open(pool, false); ok {
			t.Errorf("Open(%d) = %d, want none for an out-of-range pool", pool, b)
		}
	}
	older, _ := m.AllocateFirst(poolHot)
	wantWritePoint(t, m, poolHot, false, older.Block, true)
	newer, _ := m.AllocateFirst(poolHot)
	wantWritePoint(t, m, poolHot, false, newer.Block, true)
	wantWritePoint(t, m, poolCold, false, 0, false)

	fill(t, m, older.Block, 4) // the older block's slow part fills
	wantWritePoint(t, m, poolHot, false, newer.Block, true)
	fast, ok := m.OpenPendingGroup(poolHot, true)
	if !ok || fast.Block != older.Block {
		t.Fatalf("pending open = %v %v, want block %d", fast, ok, older.Block)
	}
	wantWritePoint(t, m, poolHot, true, older.Block, true)
	fill(t, m, newer.Block, 4)
	wantWritePoint(t, m, poolHot, false, 0, false)
	wantWritePoint(t, m, poolHot, true, older.Block, true)
	fill(t, m, older.Block, 4)
	wantWritePoint(t, m, poolHot, true, 0, false)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsReportsCorruptWritePoint: every way a write point
// can stop describing an open part of its pool and speed group is
// reported.
func TestCheckInvariantsReportsCorruptWritePoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Manager, b nand.BlockID)
	}{
		{"other pool", func(m *Manager, b nand.BlockID) { m.open[poolCold][0] = int32(b) }},
		{"other group", func(m *Manager, b nand.BlockID) { m.open[poolHot] = [2]int32{nilBlock, int32(b)} }},
		{"free block", func(m *Manager, b nand.BlockID) { m.open[poolHot][0] = int32(b) + 1 }},
		{"out of range", func(m *Manager, b nand.BlockID) { m.open[poolHot][0] = int32(len(m.blocks)) }},
		{"filled part", func(m *Manager, b nand.BlockID) {
			for m.IsOpen(b) {
				m.Advance(b)
			}
			m.open[poolHot][0] = int32(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestManager(t, 2)
			vb, err := m.AllocateFirst(poolHot)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(m, vb.Block)
			if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "write point") {
				t.Fatalf("CheckInvariants() = %v, want a write point error", err)
			}
		})
	}
}
