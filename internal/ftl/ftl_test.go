package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// testConfig: 8 pages/block over 4 layers, 32 blocks, 2x ratio.
func testConfig() nand.Config {
	return nand.Config{
		PageSize:            4096,
		PagesPerBlock:       8,
		BlocksPerChip:       32,
		Chips:               1,
		Layers:              4,
		SpeedRatio:          2,
		ReadLatency:         40 * time.Microsecond,
		ProgramLatency:      400 * time.Microsecond,
		EraseLatency:        4 * time.Millisecond,
		TransferBytesPerSec: 512e6,
	}
}

// mappingChecker is implemented by every FTL in this package for tests.
type mappingChecker interface {
	FTL
	CheckMapping() error
}

func newFTL(t *testing.T, kind string, cfg nand.Config, opts Options) mappingChecker {
	t.Helper()
	dev := nand.MustNewDevice(cfg)
	var (
		f   mappingChecker
		err error
	)
	switch kind {
	case "conventional":
		f, err = NewConventional(dev, opts)
	case "greedy-speed":
		f, err = NewGreedySpeed(dev, opts)
	case "hotcold-split":
		f, err = NewHotColdSplit(dev, opts)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var allKinds = []string{"conventional", "greedy-speed", "hotcold-split"}

func TestOptionsDefaultsAndValidation(t *testing.T) {
	cfg := testConfig()
	bad := []Options{
		{OverProvision: -0.1},
		{OverProvision: 0.95},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}

	// The GC watermarks are NewBase arguments. The baselines collect from
	// max(blocks/64, 3) free blocks up to two more, and NewBase rejects a
	// high mark the device's block count cannot exceed.
	big := cfg
	big.BlocksPerChip = 640
	for _, c := range []struct {
		cfg            nand.Config
		wantLo, wantHi int
	}{{cfg, 3, 5}, {big, 10, 12}} {
		if low, high := gcWatermarks(c.cfg); low != c.wantLo || high != c.wantHi {
			t.Errorf("%d blocks: watermarks %d/%d, want %d/%d", c.cfg.TotalBlocks(), low, high, c.wantLo, c.wantHi)
		}
	}
	newBase := func(high int) error {
		vbm, err := vblock.NewManager(cfg, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewBase(nand.MustNewDevice(cfg), vbm, Placement{}, 3, high, Options{})
		return err
	}
	if err := newBase(cfg.TotalBlocks()); err == nil {
		t.Errorf("GC high water %d on %d blocks accepted", cfg.TotalBlocks(), cfg.TotalBlocks())
	}
	if err := newBase(cfg.TotalBlocks() - 1); err != nil {
		t.Errorf("GC high water below the block count rejected: %v", err)
	}
}

func TestLogicalPagesFor(t *testing.T) {
	cfg := testConfig() // 256 pages
	if got := LogicalPagesFor(cfg, 0.10); got != 230 {
		t.Errorf("logical pages = %d, want 230", got)
	}
	if got := LogicalPagesFor(cfg, 0); got != 230 {
		t.Errorf("default OP = %d, want 230 (0.10)", got)
	}
}

func TestMapping(t *testing.T) {
	m := NewMapping(10)
	if m.pages() != 10 {
		t.Fatal("pages")
	}
	if _, ok := m.Lookup(3); ok {
		t.Fatal("fresh map should be unmapped")
	}
	if _, ok := m.Lookup(99); ok {
		t.Fatal("out of range lookup should be unmapped")
	}
	if old, had := m.Set(3, 77); had {
		t.Fatalf("first set returned old %d", old)
	}
	if p, ok := m.Lookup(3); !ok || p != 77 {
		t.Fatalf("lookup = %d %v", p, ok)
	}
	if old, had := m.Set(3, 99); !had || old != 77 {
		t.Fatalf("second set old = %d %v", old, had)
	}
	if !m.inRange(9) || m.inRange(10) {
		t.Fatal("inRange")
	}
}

// TestMappingWidePPN pins the 32-bit map's edges: the largest PPN a
// device nand.Config.Validate accepts (2^32-2) round-trips through Set
// and Lookup, and PPN 2^32-1, the unmapped sentinel, reads as unmapped —
// which is why Validate caps devices below 2^32 pages.
func TestMappingWidePPN(t *testing.T) {
	m := NewMapping(2)
	const top = nand.PPN(1<<32 - 2)
	if _, had := m.Set(0, top); had {
		t.Fatal("first set reported an old mapping")
	}
	if p, ok := m.Lookup(0); !ok || p != top {
		t.Fatalf("lookup = %d %v, want %d true", p, ok, top)
	}
	if old, had := m.Set(0, 5); !had || old != top {
		t.Fatalf("second set old = %d %v, want %d true", old, had, top)
	}
	m.Set(1, nand.PPN(unmapped))
	if _, ok := m.Lookup(1); ok {
		t.Fatal("the sentinel PPN reads as mapped")
	}
}

// TestConventionalFootprint: at paper scale the conventional FTL's state
// is its 4-byte map entries plus the block manager's per-block records,
// at most 16 MB for the Table 1 device's 3,774,643 logical pages.
func TestConventionalFootprint(t *testing.T) {
	dev, err := nand.NewDevice(nand.TableOneConfig())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := NewConventional(dev, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	if entries := 4 * f.LogicalPages(); grew < entries || grew > 16e6 {
		t.Errorf("NewConventional(Table 1) allocated %d bytes, want %d for the map and at most 16e6 in all",
			grew, entries)
	}
}

func TestReadYourWrites(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			for lpn := uint64(0); lpn < 50; lpn++ {
				if err := f.Write(lpn, 4096); err != nil {
					t.Fatal(err)
				}
			}
			for lpn := uint64(0); lpn < 50; lpn++ {
				mapped, err := f.Read(lpn)
				if err != nil || !mapped {
					t.Fatalf("read %d: mapped=%v err=%v", lpn, mapped, err)
				}
			}
			if err := f.CheckMapping(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnmappedRead(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			mapped, err := f.Read(5)
			if err != nil {
				t.Fatal(err)
			}
			if mapped {
				t.Fatal("never-written page reported mapped")
			}
			if f.Stats().UnmappedReads.Value() != 1 {
				t.Error("unmapped read not counted")
			}
		})
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			beyond := f.LogicalPages() + 1
			if err := f.Write(beyond, 4096); err == nil {
				t.Error("write beyond logical space accepted")
			}
			if _, err := f.Read(beyond); err == nil {
				t.Error("read beyond logical space accepted")
			}
		})
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			if err := f.Write(7, 4096); err != nil {
				t.Fatal(err)
			}
			if err := f.Write(7, 4096); err != nil {
				t.Fatal(err)
			}
			dev := f.Device()
			var valid, invalid int
			for b := 0; b < dev.Config().TotalBlocks(); b++ {
				valid += dev.ValidPages(nand.BlockID(b))
				invalid += dev.InvalidPages(nand.BlockID(b))
			}
			if valid != 1 || invalid != 1 {
				t.Errorf("valid=%d invalid=%d, want 1/1", valid, invalid)
			}
		})
	}
}

// churn drives overwrite traffic heavy enough to force many GC cycles.
func churn(t *testing.T, f FTL, writes int, logicalSpan uint64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < writes; i++ {
		lpn := uint64(rng.Int63n(int64(logicalSpan)))
		size := 4096
		if rng.Intn(2) == 0 {
			size = 64 * 1024
		}
		if err := f.Write(lpn, size); err != nil {
			t.Fatalf("write %d (lpn %d): %v", i, lpn, err)
		}
	}
}

func TestGCReclaimsSpaceAndPreservesData(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			span := f.LogicalPages() / 2
			churn(t, f, 3000, span, 42)
			st := f.Stats()
			if st.GCErases.Value() == 0 {
				t.Fatal("no GC despite heavy churn")
			}
			if err := f.CheckMapping(); err != nil {
				t.Fatal(err)
			}
			if err := f.Device().CheckAccounting(); err != nil {
				t.Fatal(err)
			}
			// All recently written pages still readable.
			for lpn := uint64(0); lpn < span; lpn++ {
				if _, err := f.Read(lpn); err != nil {
					t.Fatalf("read %d after GC: %v", lpn, err)
				}
			}
		})
	}
}

func TestFullLogicalSpaceFill(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind, func(t *testing.T) {
			f := newFTL(t, kind, testConfig(), Options{})
			// Fill the entire logical space twice: forces steady-state GC
			// at max utilization.
			for round := 0; round < 2; round++ {
				for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
					if err := f.Write(lpn, 64*1024); err != nil {
						t.Fatalf("round %d lpn %d: %v", round, lpn, err)
					}
				}
			}
			if err := f.CheckMapping(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWAFReasonable(t *testing.T) {
	f := newFTL(t, "conventional", testConfig(), Options{})
	churn(t, f, 4000, f.LogicalPages()*8/10, 7)
	waf := f.Stats().WAF()
	if waf < 1.0 {
		t.Fatalf("WAF %g < 1", waf)
	}
	if waf > 6 {
		t.Errorf("WAF %g implausibly high for 80%% utilization", waf)
	}
}

func TestStatsTotals(t *testing.T) {
	f := newFTL(t, "conventional", testConfig(), Options{})
	if err := f.Write(1, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(1); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.ReadTotal() <= 0 || st.WriteTotal() <= 0 {
		t.Error("zero totals")
	}
	if st.WriteTotal() != st.WriteLatency.Total {
		t.Error("WriteTotal should equal host writes when no GC ran")
	}
	if st.WAF() != 1.0 {
		t.Errorf("WAF = %g, want 1.0 before GC", st.WAF())
	}
	if (&Stats{}).WAF() != 0 {
		t.Error("empty WAF should be 0")
	}
}

func TestFastSlowReadSplitCounted(t *testing.T) {
	f := newFTL(t, "conventional", testConfig(), Options{})
	// Fill one block exactly: pages 0-3 slow half, 4-7 fast half.
	for lpn := uint64(0); lpn < 8; lpn++ {
		if err := f.Write(lpn, 4096); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := uint64(0); lpn < 8; lpn++ {
		if _, err := f.Read(lpn); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.FastReads.Value() != 4 || st.SlowReads.Value() != 4 {
		t.Errorf("fast/slow = %d/%d, want 4/4", st.FastReads.Value(), st.SlowReads.Value())
	}
}

func TestGreedySpeedPlacesHotDataFast(t *testing.T) {
	f := newFTL(t, "greedy-speed", testConfig(), Options{})
	// Interleave cold (large) and hot (small) writes so slow halves fill
	// with cold data, fast halves with hot data.
	for i := uint64(0); i < 40; i++ {
		if err := f.Write(i, 64*1024); err != nil { // cold
			t.Fatal(err)
		}
		if err := f.Write(100+i, 512); err != nil { // hot
			t.Fatal(err)
		}
	}
	dev := f.Device()
	cfg := dev.Config()
	misplacedHot, misplacedCold := 0, 0
	for b := 0; b < cfg.TotalBlocks(); b++ {
		for p := 0; p < cfg.PagesPerBlock; p++ {
			ppn := cfg.PPNForBlockPage(nand.BlockID(b), p)
			if dev.State(ppn) != nand.PageValid {
				continue
			}
			oob := dev.PeekOOB(ppn)
			fast := p >= cfg.PagesPerBlock/2
			if oob.Tag == tagHot && !fast {
				misplacedHot++
			}
			if oob.Tag == tagCold && fast {
				misplacedCold++
			}
		}
	}
	// Spill is possible at open-VB boundaries but must be rare.
	if misplacedHot > 8 || misplacedCold > 8 {
		t.Errorf("misplaced hot=%d cold=%d", misplacedHot, misplacedCold)
	}
}

func TestGreedySpeedMixesHotColdInOneBlock(t *testing.T) {
	f := newFTL(t, "greedy-speed", testConfig(), Options{})
	for i := uint64(0); i < 40; i++ {
		if err := f.Write(i, 64*1024); err != nil {
			t.Fatal(err)
		}
		if err := f.Write(100+i, 512); err != nil {
			t.Fatal(err)
		}
	}
	dev := f.Device()
	cfg := dev.Config()
	mixed := 0
	for b := 0; b < cfg.TotalBlocks(); b++ {
		hasHot, hasCold := false, false
		for p := 0; p < cfg.PagesPerBlock; p++ {
			ppn := cfg.PPNForBlockPage(nand.BlockID(b), p)
			if dev.State(ppn) != nand.PageValid {
				continue
			}
			if dev.PeekOOB(ppn).Tag == tagHot {
				hasHot = true
			} else {
				hasCold = true
			}
		}
		if hasHot && hasCold {
			mixed++
		}
	}
	if mixed == 0 {
		t.Error("greedy-speed should mix hot and cold within blocks (the Figure 3 failure)")
	}
}

func TestHotColdSplitSeparatesBlocks(t *testing.T) {
	f := newFTL(t, "hotcold-split", testConfig(), Options{})
	for i := uint64(0); i < 40; i++ {
		if err := f.Write(i, 64*1024); err != nil {
			t.Fatal(err)
		}
		if err := f.Write(100+i, 512); err != nil {
			t.Fatal(err)
		}
	}
	dev := f.Device()
	cfg := dev.Config()
	for b := 0; b < cfg.TotalBlocks(); b++ {
		hasHot, hasCold := false, false
		for p := 0; p < cfg.PagesPerBlock; p++ {
			ppn := cfg.PPNForBlockPage(nand.BlockID(b), p)
			if dev.State(ppn) == nand.PageFree {
				continue
			}
			if dev.PeekOOB(ppn).Tag == tagHot {
				hasHot = true
			} else {
				hasCold = true
			}
		}
		if hasHot && hasCold {
			t.Fatalf("block %d mixes hot and cold under hotcold-split", b)
		}
	}
}

func TestGreedySpeedGCWorseThanSplit(t *testing.T) {
	// The paper's motivation: mixing hot and cold in one block wrecks GC.
	// Hot churn over a small set + cold data that stays valid.
	run := func(kind string) *Stats {
		f := newFTL(t, kind, testConfig(), Options{})
		rng := rand.New(rand.NewSource(3))
		cold := f.LogicalPages() * 6 / 10
		for lpn := uint64(0); lpn < cold; lpn++ {
			if err := f.Write(lpn, 64*1024); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6000; i++ {
			lpn := cold + uint64(rng.Int63n(40)) // 40 hot pages churning
			if err := f.Write(lpn, 512); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats()
	}
	greedy := run("greedy-speed")
	split := run("hotcold-split")
	if greedy.GCErases.Value() == 0 || split.GCErases.Value() == 0 {
		t.Skip("churn did not trigger GC at this scale")
	}
	if float64(greedy.GCCopies.Value()) < 1.5*float64(split.GCCopies.Value()) {
		t.Errorf("expected mixing to inflate GC copies: greedy=%d split=%d",
			greedy.GCCopies.Value(), split.GCCopies.Value())
	}
}

func TestNoSpaceErrorWhenOvercommitted(t *testing.T) {
	cfg := testConfig()
	cfg.BlocksPerChip = 16
	// Zero over-provisioning with aggressive fill: eventually ErrNoSpace.
	f := newFTL(t, "conventional", cfg, Options{OverProvision: 0.01})
	var failed error
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.Write(lpn, 4096); err != nil {
			failed = err
			break
		}
	}
	// Either the fill succeeds (enough slack for GC) or it fails with
	// ErrNoSpace; any other error is a bug.
	if failed != nil && !errors.Is(failed, ErrNoSpace) {
		t.Fatalf("unexpected error: %v", failed)
	}
}

// baseOf returns the shared machinery of one of this package's FTLs.
func baseOf(f FTL) *Base {
	switch f := f.(type) {
	case *Conventional:
		return &f.Base
	case *GreedySpeed:
		return &f.Base
	case *HotColdSplit:
		return &f.Base
	}
	panic(fmt.Sprintf("unknown FTL %T", f))
}

// checkWritePoints verifies the manager's invariants and that every
// open block is one of its pool's write points: a strategy opens a part
// only where the pool's write point of that speed group is empty and
// writes only into write points, so it never leaves an open block
// behind that garbage collection would skip forever.
func checkWritePoints(vbm *vblock.Manager, blocks int) error {
	if err := vbm.CheckInvariants(); err != nil {
		return err
	}
	for b := nand.BlockID(0); int(b) < blocks; b++ {
		if !vbm.IsOpen(b) {
			continue
		}
		pool, owned := vbm.PoolOf(b)
		slow, sok := vbm.Open(pool, false)
		fast, fok := vbm.Open(pool, true)
		if !owned || !(sok && slow == b || fok && fast == b) {
			return fmt.Errorf("open block %d of pool %d is not one of its write points", b, pool)
		}
	}
	return nil
}

// Property: random workloads keep the mapping invariant (every mapped LPN
// points at a valid page holding that LPN), the device accounting
// invariant (per-block counters agree with the page arrays) and, after
// every operation, the virtual-block manager's invariants with every
// open block a write point (checkWritePoints) on every FTL, and
// shadow-model reads agree.
func TestPropertyFTLConsistency(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			f := func(seed int64) bool {
				ftl := newFTLQuick(kind)
				vbm, blocks := baseOf(ftl).vbm, ftl.Device().Config().TotalBlocks()
				rng := rand.New(rand.NewSource(seed))
				span := int64(ftl.LogicalPages())
				written := make(map[uint64]bool)
				for i := 0; i < 1200; i++ {
					lpn := uint64(rng.Int63n(span))
					if rng.Intn(3) == 0 {
						mapped, err := ftl.Read(lpn)
						if err != nil {
							t.Logf("read: %v", err)
							return false
						}
						if mapped != written[lpn] {
							t.Logf("mapped=%v but written=%v for %d", mapped, written[lpn], lpn)
							return false
						}
					} else {
						size := []int{512, 4096, 64 * 1024}[rng.Intn(3)]
						if err := ftl.Write(lpn, size); err != nil {
							t.Logf("write: %v", err)
							return false
						}
						written[lpn] = true
					}
					if err := checkWritePoints(vbm, blocks); err != nil {
						t.Logf("op %d: %v", i, err)
						return false
					}
				}
				if err := ftl.CheckMapping(); err != nil {
					t.Log(err)
					return false
				}
				return ftl.Device().CheckAccounting() == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func newFTLQuick(kind string) mappingChecker {
	dev := nand.MustNewDevice(testConfig())
	switch kind {
	case "conventional":
		f, _ := NewConventional(dev, Options{})
		return f
	case "greedy-speed":
		f, _ := NewGreedySpeed(dev, Options{})
		return f
	default:
		f, _ := NewHotColdSplit(dev, Options{})
		return f
	}
}

func TestFTLNames(t *testing.T) {
	names := map[string]bool{}
	for _, kind := range allKinds {
		f := newFTL(t, kind, testConfig(), Options{})
		names[f.Name()] = true
	}
	if len(names) != 3 {
		t.Errorf("duplicate FTL names: %v", names)
	}
}
