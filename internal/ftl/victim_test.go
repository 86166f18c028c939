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
// exclude callback rejects (e.g. active blocks) are skipped. Returns
// ok=false when no candidate has any invalid page.
//
// The policy is plain greedy rather than Kawaguchi cost-benefit
// (inv*age/(2*valid+1)): greedy is what GCLoop documents, what the
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
// interchangeable under the greedy policy. Each step compares the two
// with no exclusion and with a fresh random exclusion set (the way GC
// excludes its active blocks).
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
		// The exclusion sets draw from their own source so the write,
		// invalidate and collect sequence stays the one rng alone drives.
		exRng := rand.New(rand.NewSource(trial + 1000))
		excluded := make([]bool, cfg.TotalBlocks())
		exclude := func(b nand.BlockID) bool { return excluded[b] }

		type openVB struct {
			vb   vblock.VB
			pool int
		}
		var writable []openVB
		var valid []nand.PPN // every currently-valid page

		writeOne := func() {
			if len(writable) == 0 {
				pool := rng.Intn(2)
				if vb, ok := vbm.OpenPending(pool); ok {
					writable = append(writable, openVB{vb, pool})
				} else if vb, err := vbm.AllocateFirst(pool); err == nil {
					writable = append(writable, openVB{vb, pool})
				} else {
					return // device fully allocated
				}
			}
			i := rng.Intn(len(writable))
			w := writable[i]
			page, vbFull, _, err := vbm.Advance(w.vb.Block)
			if err != nil {
				t.Fatalf("advance: %v", err)
			}
			ppn := cfg.PPNForBlockPage(w.vb.Block, page)
			if _, err := dev.Program(ppn, nand.OOB{LPN: uint64(ppn)}); err != nil {
				t.Fatalf("program: %v", err)
			}
			valid = append(valid, ppn)
			if vbFull {
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
			victim, ok := vbm.PickVictim(false, nil, dev.EraseCount)
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
			full := vbm.IsFull(victim)
			vbm.UnqueuePending(victim)
			for i := range writable {
				if writable[i].vb.Block == victim {
					writable = append(writable[:i], writable[i+1:]...)
					break
				}
			}
			if full {
				err = vbm.Release(victim)
			} else {
				err = vbm.ReleaseForce(victim)
			}
			if err != nil {
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
			for b := range excluded {
				excluded[b] = exRng.Intn(4) == 0
			}
			for _, fullOnly := range []bool{true, false} {
				iter := vbm.ForEachOwned
				if fullOnly {
					iter = vbm.ForEachFull
				}
				for _, ex := range []func(nand.BlockID) bool{nil, exclude} {
					got, gok := vbm.PickVictim(fullOnly, ex, dev.EraseCount)
					want, wok := victimPolicy{dev: dev}.pick(iter, ex)
					if gok != wok {
						t.Fatalf("trial %d step %d fullOnly=%v exclude=%v: index found=%v, scan found=%v",
							trial, step, fullOnly, ex != nil, gok, wok)
					}
					if !gok {
						continue
					}
					if ex != nil && ex(got) {
						t.Fatalf("trial %d step %d fullOnly=%v: index picked excluded block %d",
							trial, step, fullOnly, got)
					}
					gi, gw := score(got)
					wi, ww := score(want)
					if gi != wi || gw != ww {
						t.Fatalf("trial %d step %d fullOnly=%v exclude=%v: index picked block %d (inv=%d wear=%d), scan picked %d (inv=%d wear=%d)",
							trial, step, fullOnly, ex != nil, got, gi, gw, want, wi, ww)
					}
				}
			}
		}
	}
}

// TestVictimIndexHonorsExclude verifies that excluded blocks are skipped
// and the pick falls through to lower invalid-count buckets.
func TestVictimIndexHonorsExclude(t *testing.T) {
	cfg := victimTestConfig(16)
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := Base{dev: dev, cfg: cfg, vbm: vbm}

	fill := func(invalidate int) nand.BlockID {
		vb, err := vbm.AllocateFirst(0)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < cfg.PagesPerBlock; p++ {
			if _, _, _, err := vbm.Advance(vb.Block); err != nil {
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

	top := fill(6)
	second := fill(3)
	if got, ok := vbm.PickVictim(true, nil, dev.EraseCount); !ok || got != top {
		t.Fatalf("pick = %v %v, want block %d", got, ok, top)
	}
	got, ok := vbm.PickVictim(true, func(b nand.BlockID) bool { return b == top }, dev.EraseCount)
	if !ok || got != second {
		t.Fatalf("excluded pick = %v %v, want block %d", got, ok, second)
	}
	if _, ok := vbm.PickVictim(true, func(nand.BlockID) bool { return true }, dev.EraseCount); ok {
		t.Fatal("pick with everything excluded should fail")
	}
}

// TestGCDesperationCollectsPartialBlock builds a state with no full
// blocks and only a partially-programmed, pending victim, and verifies
// GCLoopOrdered falls back to the desperation pass: the partial block is
// unqueued from pending, its survivors relocated, and the block
// force-released back to the free pool.
func TestGCDesperationCollectsPartialBlock(t *testing.T) {
	cfg := victimTestConfig(10)
	dev := nand.MustNewDevice(cfg)
	vbm, err := vblock.NewManager(cfg, 2, 1) // partLen 4
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewBase(dev, vbm, Options{OverProvision: 0.5, GCLowWater: 1, GCHighWater: 9})
	if err != nil {
		t.Fatal(err)
	}

	// A dummy allocation besides the victim pulls the free pool below the
	// high-water mark so the GC loop actually runs; with zero invalid
	// pages it can never be picked itself.
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
		page, _, _, err := vbm.Advance(victim)
		if err != nil {
			t.Fatal(err)
		}
		ppn := cfg.PPNForBlockPage(victim, page)
		if _, err := dev.Program(ppn, nand.OOB{LPN: lpn}); err != nil {
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
	if vbm.PendingCount(0) != 1 {
		t.Fatalf("pending count = %d, want 1", vbm.PendingCount(0))
	}
	if _, ok := vbm.PickVictim(true, nil, dev.EraseCount); ok {
		t.Fatal("full-only pick should find nothing (no full blocks)")
	}

	// The relocation target: GC opens a fresh block through this stub.
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
		page, _, _, err := vbm.Advance(target.Block)
		if err != nil {
			return 0, 0, err
		}
		ppn := cfg.PPNForBlockPage(target.Block, page)
		cost, err := dev.Program(ppn, oob)
		return cost, ppn, err
	}
	exclude := func(b nand.BlockID) bool { return haveTarget && b == target.Block }

	if err := base.GCLoopOrdered(exclude, reprogram, nil); err != nil {
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
