package nand

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// EraseForce erases the block regardless of valid data, for tests that
// reset a block without relocating its contents first. Retired blocks
// still reject it.
func (d *Device) EraseForce(b BlockID) (time.Duration, error) {
	blk, err := d.block(b)
	if err != nil {
		return 0, err
	}
	if d.blockRetired(b) {
		return 0, fmt.Errorf("%w: erasing block %d", ErrBlockRetired, b)
	}
	return d.eraseBlock(b, blk), nil
}

// parkedErases counts the erases waiting in the per-chip deferred
// queues (zero when deferral is off or everything has committed).
func parkedErases(d *Device) int {
	n := 0
	for _, q := range d.deferred {
		n += len(q)
	}
	return n
}

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.PageSize = 0
	if _, err := NewDevice(cfg); err == nil {
		t.Fatal("want config error")
	}
}

func TestMustNewDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewDevice should panic on invalid config")
		}
	}()
	cfg := testConfig()
	cfg.Chips = 0
	MustNewDevice(cfg)
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	oob := OOB{LPN: 42, Tag: 3}
	cost, err := d.Program(0, oob)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Error("program cost should be positive")
	}
	got, rcost, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != oob {
		t.Errorf("read OOB = %+v, want %+v", got, oob)
	}
	if rcost <= 0 {
		t.Error("read cost should be positive")
	}
}

func TestProgramOrderEnforced(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Program(1, OOB{}); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("skipping page 0: err = %v, want ErrProgramOrder", err)
	}
	if _, err := d.Program(0, OOB{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, OOB{}); !errors.Is(err, ErrAlreadyWritten) {
		t.Fatalf("reprogram: err = %v, want ErrAlreadyWritten", err)
	}
	if _, err := d.Program(2, OOB{}); !errors.Is(err, ErrProgramOrder) {
		t.Fatalf("gap: err = %v, want ErrProgramOrder", err)
	}
	if _, err := d.Program(1, OOB{}); err != nil {
		t.Fatalf("in-order program failed: %v", err)
	}
}

func TestReadFreePageFails(t *testing.T) {
	d := newTestDevice(t)
	if _, _, err := d.Read(0); !errors.Is(err, ErrReadFree) {
		t.Fatalf("err = %v, want ErrReadFree", err)
	}
}

func TestOutOfRange(t *testing.T) {
	d := newTestDevice(t)
	huge := PPN(d.cfg.TotalPages() + 5)
	if _, _, err := d.Read(huge); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.Program(huge, OOB{}); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("program: err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.Erase(BlockID(d.cfg.TotalBlocks() + 1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase: err = %v, want ErrOutOfRange", err)
	}
	if err := d.Invalidate(huge); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("invalidate: err = %v, want ErrOutOfRange", err)
	}
}

func TestInvalidateTransitions(t *testing.T) {
	d := newTestDevice(t)
	if err := d.Invalidate(0); err == nil {
		t.Fatal("invalidating a free page should fail")
	}
	if _, err := d.Program(0, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(0); err == nil {
		t.Fatal("double invalidate should fail")
	}
	if got := d.State(0); got != PageInvalid {
		t.Errorf("state = %v, want invalid", got)
	}
	// Reading an invalid page is allowed.
	if _, _, err := d.Read(0); err != nil {
		t.Errorf("reading invalid page: %v", err)
	}
}

func TestEraseSemantics(t *testing.T) {
	d := newTestDevice(t)
	for p := 0; p < d.cfg.PagesPerBlock; p++ {
		if _, err := d.Program(PPN(p), OOB{LPN: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(0); err == nil {
		t.Fatal("erasing a block with valid pages must fail")
	}
	for p := 0; p < d.cfg.PagesPerBlock; p++ {
		if err := d.Invalidate(PPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	cost, err := d.Erase(0)
	if err != nil {
		t.Fatal(err)
	}
	if cost != d.cfg.EraseLatency {
		t.Errorf("erase cost = %v, want %v", cost, d.cfg.EraseLatency)
	}
	if d.EraseCount(0) != 1 {
		t.Errorf("erase count = %d, want 1", d.EraseCount(0))
	}
	if d.blocks[0].nextPage != 0 {
		t.Errorf("next page after erase = %d, want 0", d.blocks[0].nextPage)
	}
	// Block is reusable after erase.
	if _, err := d.Program(0, OOB{LPN: 9}); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	oob, _, err := d.Read(0)
	if err != nil || oob.LPN != 9 {
		t.Fatalf("read after erase: oob=%+v err=%v", oob, err)
	}
}

func TestEraseForceDropsValidData(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Program(0, OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if d.ValidPages(0) != 0 || d.blocks[0].nextPage != 0 {
		t.Error("EraseForce should reset the block")
	}
}

func TestCountsAndCursors(t *testing.T) {
	d := newTestDevice(t)
	const n = 5
	for p := 0; p < n; p++ {
		if _, err := d.Program(PPN(p), OOB{LPN: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Invalidate(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(3); err != nil {
		t.Fatal(err)
	}
	if got := d.ValidPages(0); got != n-2 {
		t.Errorf("valid = %d, want %d", got, n-2)
	}
	if got := d.InvalidPages(0); got != 2 {
		t.Errorf("invalid = %d, want 2", got)
	}
	if got := d.blocks[0].nextPage; got != n {
		t.Errorf("cursor = %d, want %d", got, n)
	}
	if err := d.CheckAccounting(); err != nil {
		t.Errorf("accounting: %v", err)
	}
}

func TestDeviceStatsAccumulate(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Program(0, OOB{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Programs.Value() != 1 || s.Reads.Value() != 1 || s.Erases.Value() != 1 {
		t.Errorf("stats = %d programs %d reads %d erases, want 1 each",
			s.Programs.Value(), s.Reads.Value(), s.Erases.Value())
	}
	if s.ReadTime.Total <= 0 || s.ProgTime.Total <= 0 || s.EraseTime.Total <= 0 {
		t.Error("latency accumulators should be positive")
	}
	if d.TotalErases() != 1 {
		t.Errorf("TotalErases = %d, want 1", d.TotalErases())
	}
}

func TestFasterPagesCostLess(t *testing.T) {
	d := newTestDevice(t)
	var costs []int64
	for p := 0; p < d.cfg.PagesPerBlock; p++ {
		c, err := d.Program(PPN(p), OOB{LPN: uint64(p)})
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, int64(c))
	}
	if costs[len(costs)-1] >= costs[0] {
		t.Errorf("last page program (%d) should be cheaper than first (%d)", costs[len(costs)-1], costs[0])
	}
	r0, _, _ := d.Read(0)
	_ = r0
	c0, _, err := d.Read(0)
	_ = c0
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeekOOBNoCost(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.Program(0, OOB{LPN: 77, Tag: 5}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Reads.Value()
	if oob := d.PeekOOB(0); oob != (OOB{LPN: 77, Tag: 5}) {
		t.Errorf("PeekOOB = %+v, want LPN 77 Tag 5", oob)
	}
	if d.Stats().Reads.Value() != before {
		t.Error("PeekOOB must not count as a device read")
	}
}

func TestMaxEraseCount(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.EraseForce(3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseForce(3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseForce(1); err != nil {
		t.Fatal(err)
	}
	if got := d.MaxEraseCount(); got != 2 {
		t.Errorf("MaxEraseCount = %d, want 2", got)
	}
}

// TestPropertyRandomOpsKeepAccounting drives random legal op sequences and
// checks that the device accounting invariant (per-block page-state
// counters agree with the page arrays) holds throughout.
func TestPropertyRandomOpsKeepAccounting(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		d := MustNewDevice(cfg)
		// valid pages we may invalidate
		var valid []PPN
		cursor := make([]int, cfg.TotalBlocks())
		for step := 0; step < 500; step++ {
			switch rng.Intn(3) {
			case 0: // program next page of a random non-full block
				b := BlockID(rng.Intn(cfg.TotalBlocks()))
				if cursor[b] >= cfg.PagesPerBlock {
					continue
				}
				ppn := cfg.PPNForBlockPage(b, cursor[b])
				if _, err := d.Program(ppn, OOB{LPN: uint64(step)}); err != nil {
					t.Logf("program: %v", err)
					return false
				}
				cursor[b]++
				valid = append(valid, ppn)
			case 1: // invalidate a random valid page
				if len(valid) == 0 {
					continue
				}
				i := rng.Intn(len(valid))
				if err := d.Invalidate(valid[i]); err != nil {
					t.Logf("invalidate: %v", err)
					return false
				}
				valid[i] = valid[len(valid)-1]
				valid = valid[:len(valid)-1]
			case 2: // erase a random block with no valid pages
				b := BlockID(rng.Intn(cfg.TotalBlocks()))
				if d.ValidPages(b) != 0 {
					continue
				}
				if _, err := d.Erase(b); err != nil {
					t.Logf("erase: %v", err)
					return false
				}
				cursor[b] = 0
			}
			if err := d.CheckAccounting(); err != nil {
				t.Logf("accounting: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageStateString(t *testing.T) {
	cases := map[PageState]string{
		PageFree:     "free",
		PageValid:    "valid",
		PageInvalid:  "invalid",
		PageState(9): "PageState(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
