package ftl

import (
	"math/rand"
	"testing"
	"time"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

func victimTestConfig(blocks int) nand.Config {
	return nand.Config{
		PageSize:       512,
		PagesPerBlock:  8,
		BlocksPerChip:  blocks,
		Chips:          1,
		Layers:         8,
		SpeedRatio:     2,
		ReadLatency:    10 * time.Microsecond,
		ProgramLatency: 100 * time.Microsecond,
		EraseLatency:   time.Millisecond,
	}
}

// victimPolicy is the full-scan victim selection, the reference
// implementation the incremental index in vblock.Manager is checked
// against: greedy by invalid-page count ("the block with the most
// invalid pages is selected"), ties broken toward lower wear. Blocks the
// exclude callback rejects (the blocks still open for writes) are
// skipped. Returns ok=false when no candidate has any invalid page.
//
// The policy is plain greedy rather than Kawaguchi cost-benefit
// (inv*age/(2*valid+1)): greedy is what the collector documents, what the
// paper's baseline assumes, and the only score a bucket index can
// maintain under O(1) updates (the age term re-orders continuously).
type victimPolicy struct {
	dev *nand.Device
}

func (v victimPolicy) pick(iter func(func(nand.BlockID) bool), exclude func(nand.BlockID) bool) (nand.BlockID, bool) {
	var best nand.BlockID
	bestInv := 0
	var bestWear uint32
	iter(func(blk nand.BlockID) bool {
		if exclude != nil && exclude(blk) {
			return true
		}
		inv := v.dev.InvalidPages(blk)
		if inv == 0 {
			return true
		}
		wear := v.dev.EraseCount(blk)
		if inv > bestInv || (inv == bestInv && wear < bestWear) {
			best, bestInv, bestWear = blk, inv, wear
		}
		return true
	})
	return best, bestInv > 0
}

// TestVictimIndexMatchesLegacyScan drives random writes, invalidations
// and collections through a device + manager pair and asserts after
// every step that the incremental invalid-count index picks the same
// victim as the legacy full scan — or one with an identical
// (invalid pages, wear) score, since equally-scored candidates are
// interchangeable under the greedy policy. The scan excludes the blocks
// the test itself holds open for writes, so the oracle's notion of an
// open block stays independent of Manager.IsOpen.
func TestVictimIndexMatchesLegacyScan(t *testing.T) {
	for trial := int64(0); trial < 10; trial++ {
		rng := rand.New(rand.NewSource(trial))
		cfg := victimTestConfig(16 + rng.Intn(16))
		dev := nand.MustNewDevice(cfg)
		vbm, err := vblock.NewManager(cfg, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		base := Base{dev: dev, cfg: cfg, vbm: vbm}

		type openVB struct {
			vb   vblock.VB
			pool int
		}
		var writable []openVB // the VBs the test holds open for writes
		var valid []nand.PPN  // every currently-valid page
		heldOpen := func(b nand.BlockID) bool {
			for _, w := range writable {
				if w.vb.Block == b {
					return true
				}
			}
			return false
		}

		writeOne := func() {
			if len(writable) == 0 {
				pool := rng.Intn(2)
				if vb, ok := vbm.OpenPendingGroup(pool, true); ok {
					writable = append(writable, openVB{vb, pool})
				} else if vb, err := vbm.AllocateFirst(pool); err == nil {
					writable = append(writable, openVB{vb, pool})
				} else {
					return // device fully allocated
				}
			}
			i := rng.Intn(len(writable))
			w := writable[i]
			page, err := vbm.Advance(w.vb.Block)
			if err != nil {
				t.Fatalf("advance: %v", err)
			}
			ppn := cfg.PPNForBlockPage(w.vb.Block, page)
			if _, err := dev.Program(ppn, nand.OOB{LPN: uint64(ppn)}); err != nil {
				t.Fatalf("program: %v", err)
			}
			valid = append(valid, ppn)
			if page+1 == w.vb.End { // the VB's last page: it is full
				writable = append(writable[:i], writable[i+1:]...)
			}
		}

		invalidateOne := func() {
			if len(valid) == 0 {
				return
			}
			i := rng.Intn(len(valid))
			ppn := valid[i]
			valid = append(valid[:i], valid[i+1:]...)
			if err := base.Invalidate(ppn); err != nil {
				t.Fatalf("invalidate: %v", err)
			}
		}

		collectOne := func() {
			victim, ok := vbm.PickVictim(false, dev.EraseCount, 0)
			if !ok {
				return
			}
			// Drop the victim's remaining valid pages (a relocation-free
			// stand-in for GC: this test only exercises victim accounting).
			for p := 0; p < cfg.PagesPerBlock; p++ {
				ppn := cfg.PPNForBlockPage(victim, p)
				if dev.State(ppn) != nand.PageValid {
					continue
				}
				for i, v := range valid {
					if v == ppn {
						valid = append(valid[:i], valid[i+1:]...)
						break
					}
				}
				if err := base.Invalidate(ppn); err != nil {
					t.Fatalf("invalidate victim page: %v", err)
				}
			}
			if _, err := dev.Erase(victim); err != nil {
				t.Fatalf("erase: %v", err)
			}
			if err := vbm.Release(victim); err != nil {
				t.Fatalf("release: %v", err)
			}
		}

		score := func(b nand.BlockID) (int, uint32) {
			return dev.InvalidPages(b), dev.EraseCount(b)
		}

		for step := 0; step < 3000; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				writeOne()
			case r < 8:
				invalidateOne()
			default:
				collectOne()
			}
			if err := vbm.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for b := 0; b < cfg.TotalBlocks(); b++ {
				if got, want := vbm.InvalidCount(nand.BlockID(b)), dev.InvalidPages(nand.BlockID(b)); got != want {
					t.Fatalf("trial %d step %d: block %d invalid count %d, device says %d",
						trial, step, b, got, want)
				}
			}
			for _, fullOnly := range []bool{true, false} {
				iter := vbm.ForEachOwned
				if fullOnly {
					iter = vbm.ForEachFull
				}
				got, gok := vbm.PickVictim(fullOnly, dev.EraseCount, 0)
				want, wok := victimPolicy{dev: dev}.pick(iter, heldOpen)
				if gok != wok {
					t.Fatalf("trial %d step %d fullOnly=%v: index found=%v, scan found=%v",
						trial, step, fullOnly, gok, wok)
				}
				if !gok {
					continue
				}
				if heldOpen(got) {
					t.Fatalf("trial %d step %d fullOnly=%v: index picked open block %d",
						trial, step, fullOnly, got)
				}
				gi, gw := score(got)
				wi, ww := score(want)
				if gi != wi || gw != ww {
					t.Fatalf("trial %d step %d fullOnly=%v: index picked block %d (inv=%d wear=%d), scan picked %d (inv=%d wear=%d)",
						trial, step, fullOnly, got, gi, gw, want, wi, ww)
				}
			}
		}
	}
}

// TestVictimIndexHonorsExclude verifies that the index excludes blocks
// still open for writes on its own: an open block is never picked,
// however many invalid pages it holds, and the pick falls through to
// lower invalid-count buckets.
func TestVictimIndexHonorsExclude(t *testing.T) {
	cfg := victimTestConfig(16)
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := Base{dev: dev, cfg: cfg, vbm: vbm}

	// program writes n pages into the block and invalidates the first
	// invalidate of them.
	program := func(n, invalidate int) nand.BlockID {
		vb, err := vbm.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			if _, err := vbm.Advance(vb.Block); err != nil {
				t.Fatal(err)
			}
			ppn := cfg.PPNForBlockPage(vb.Block, p)
			if _, err := dev.Program(ppn, nand.OOB{}); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < invalidate; p++ {
			if err := base.Invalidate(cfg.PPNForBlockPage(vb.Block, p)); err != nil {
				t.Fatal(err)
			}
		}
		return vb.Block
	}

	// One page short of full, with every written page invalid: the top
	// bucket, but still open.
	open := program(cfg.PagesPerBlock-1, cfg.PagesPerBlock-1)
	for _, fullOnly := range []bool{true, false} {
		if got, ok := vbm.PickVictim(fullOnly, dev.EraseCount, 0); ok {
			t.Fatalf("fullOnly=%v: picked block %d, want none (the only candidate is open)", fullOnly, got)
		}
	}
	top := program(cfg.PagesPerBlock, 6)
	program(cfg.PagesPerBlock, 3)
	for _, fullOnly := range []bool{true, false} {
		if got, ok := vbm.PickVictim(fullOnly, dev.EraseCount, 0); !ok || got != top {
			t.Fatalf("fullOnly=%v: pick = %v %v, want block %d below the open block %d",
				fullOnly, got, ok, top, open)
		}
	}
}

// TestGCDesperationCollectsPartialBlock builds a state with no full
// blocks and only a partially-programmed, pending victim, and verifies
// MaybeGC falls back to the desperation pass: the partial block is
// unqueued from pending, its survivors relocated, and the block
// force-released back to the free pool.
func TestGCDesperationCollectsPartialBlock(t *testing.T) {
	cfg := victimTestConfig(10)
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 2, 1) // partLen 4
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBase(dev, vbm, 8, 9, Options{OverProvision: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	// A dummy allocation besides the victim pulls the free pool to the
	// low-water mark so MaybeGC actually runs; with zero invalid pages
	// it can never be picked itself.
	if _, err := vbm.AllocateFirst(0); err != nil {
		t.Fatal(err)
	}

	// Fill part 0 of one block (4 pages, lpns 0-3): the block joins the
	// pending queue with its fast part allocatable, but is NOT full.
	vb, err := vbm.AllocateFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	victim := vb.Block
	for lpn := uint64(0); lpn < 4; lpn++ {
		_, ppn, err := base.ProgramNext(victim, nand.OOB{LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		base.Map().Set(lpn, ppn)
	}
	// Invalidate half; two survivors must be relocated by GC.
	for lpn := uint64(0); lpn < 2; lpn++ {
		ppn, _ := base.Map().Lookup(lpn)
		if err := base.Invalidate(ppn); err != nil {
			t.Fatal(err)
		}
	}
	if vbm.PendingCountGroup(0, true) != 1 {
		t.Fatalf("pending count = %d, want 1", vbm.PendingCountGroup(0, true))
	}
	if _, ok := vbm.PickVictim(true, dev.EraseCount, 0); ok {
		t.Fatal("full-only pick should find nothing (no full blocks)")
	}

	// The relocation target: GC opens a fresh block through this stub;
	// while it is open the victim walk skips it on its own.
	var target vblock.VB
	var haveTarget bool
	reprogram := func(oob nand.OOB) (time.Duration, nand.PPN, error) {
		if !haveTarget {
			nvb, err := vbm.AllocateFirst(0)
			if err != nil {
				return 0, 0, err
			}
			target, haveTarget = nvb, true
		}
		return base.ProgramNext(target.Block, oob)
	}
	if err := base.MaybeGC(reprogram, nil); err != nil {
		t.Fatal(err)
	}
	if dev.EraseCount(victim) != 1 {
		t.Fatalf("victim erase count = %d, want 1", dev.EraseCount(victim))
	}
	if vbm.InvalidCount(victim) != 0 {
		t.Fatalf("victim invalid count = %d after release", vbm.InvalidCount(victim))
	}
	if got := base.Stats().GCCopies.Value(); got != 2 {
		t.Fatalf("GC copies = %d, want 2 survivors relocated", got)
	}
	for lpn := uint64(2); lpn < 4; lpn++ {
		ppn, ok := base.Map().Lookup(lpn)
		if !ok || dev.State(ppn) != nand.PageValid {
			t.Fatalf("lpn %d lost by desperation GC", lpn)
		}
		if oob := dev.PeekOOB(ppn); oob.LPN != lpn {
			t.Fatalf("lpn %d maps to page holding %d", lpn, oob.LPN)
		}
	}
	if err := vbm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
