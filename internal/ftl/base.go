package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// Base carries the machinery every FTL in this package shares: the
// device, the mapping table, stats, options, the page-programming path
// and victim selection.
type Base struct {
	dev   *nand.Device
	cfg   nand.Config
	opts  Options
	table *Mapping
	stats Stats

	// gcLow and gcHigh are the GC watermarks: collection starts when the
	// free pool falls to gcLow blocks and stops once it is back at gcHigh.
	gcLow, gcHigh int

	// vbm is the strategy's virtual-block manager; invalidations and GC
	// victim picks go through it so its victim index stays current.
	vbm *vblock.Manager
	// gcDeferred is collectBlock's reusable fast-first scratch;
	// gcCollecting marks a collection in flight, so a collection
	// re-entered through a reprogram callback fails instead of
	// clobbering the slice the outer pass still ranges.
	gcDeferred   []int
	gcCollecting bool
}

// NewBase validates the options and builds the shared state for an FTL
// over dev and the strategy's virtual-block manager, collecting garbage
// between the gcLow and gcHigh free-block watermarks. Strategy packages
// (internal/core) embed the result. Taking the manager at construction
// (rather than attaching it later) guarantees Invalidate always feeds
// the manager's GC victim index — a strategy cannot forget to wire it —
// and lets NewBase thread the dispatch policy plus the device's chip
// clocks into the manager, so clock-aware policies work for every
// strategy without per-FTL wiring.
func NewBase(dev *nand.Device, vbm *vblock.Manager, gcLow, gcHigh int, opts Options) (Base, error) {
	cfg := dev.Config()
	opts = opts.withDefaults(cfg)
	if err := opts.validate(); err != nil {
		return Base{}, err
	}
	if gcHigh >= cfg.TotalBlocks() {
		return Base{}, fmt.Errorf("ftl: GC high water %d not below %d blocks", gcHigh, cfg.TotalBlocks())
	}
	if vbm == nil {
		return Base{}, fmt.Errorf("ftl: NewBase requires a vblock manager")
	}
	vbm.SetDispatch(opts.Dispatch, dev)
	if opts.Tenants > 1 {
		vbm.SetTenants(opts.Tenants)
	}
	if opts.DeferErases {
		dev.SetEraseDeferral(eraseDeferFactor * cfg.EraseLatency)
	}
	if opts.ReorderWindow > 0 && cfg.PlaneCount() > 1 {
		dev.SetReorderWindow(opts.ReorderWindow)
	}
	if opts.Suspend != nand.SuspendOff {
		dev.SetSuspend(opts.Suspend, suspendCost, resumeCost)
	}
	if opts.Reliability != nil {
		if err := dev.SetReliability(*opts.Reliability, opts.ReliabilitySeed); err != nil {
			return Base{}, err
		}
	}
	logical := LogicalPagesFor(cfg, opts.OverProvision)
	if logical == 0 {
		return Base{}, fmt.Errorf("ftl: no logical space (over-provision %g on %d pages)",
			opts.OverProvision, cfg.TotalPages())
	}
	return Base{dev: dev, cfg: cfg, opts: opts, table: NewMapping(logical), vbm: vbm,
		gcLow: gcLow, gcHigh: gcHigh}, nil
}

// gcWatermarks returns the GC watermarks of this package's FTLs: collect
// when the free pool falls to max(blocks/64, 3) blocks, up to two more.
func gcWatermarks(cfg nand.Config) (low, high int) {
	low = max(cfg.TotalBlocks()/64, 3)
	return low, low + 2
}

// Stats implements FTL.
func (b *Base) Stats() *Stats { return &b.stats }

// Device implements FTL.
func (b *Base) Device() *nand.Device { return b.dev }

// LogicalPages implements FTL.
func (b *Base) LogicalPages() uint64 { return b.table.pages() }

// Config returns the device geometry the FTL was built over.
func (b *Base) Config() nand.Config { return b.cfg }

// Geom returns the geometry by pointer for per-page address arithmetic
// (SplitPPN and friends take pointer receivers so the hot path never
// copies the Config struct).
func (b *Base) Geom() *nand.Config { return &b.cfg }

// Map returns the logical-to-physical mapping table.
func (b *Base) Map() *Mapping { return b.table }

// SetTenant announces the tenant whose request the FTL is about to
// serve, so tenant-aware dispatch policies (vblock.TenantPartition and
// the tenant slicing in vblock.HotColdAffinity) route the allocations it
// triggers — the host write and any GC it cascades into — onto that
// tenant's chips. The replay calls it per request on multi-tenant runs;
// single-tenant runs never call it, and with Options.Tenants <= 1 the
// manager ignores the active tenant entirely.
func (b *Base) SetTenant(t int) { b.vbm.SetActiveTenant(t) }

// Invalidate drops a physical page and keeps the victim index current.
// All FTL-side invalidation must go through here (not nand.Device
// directly), or victim selection will run on stale invalid counts.
func (b *Base) Invalidate(ppn nand.PPN) error {
	if err := b.dev.Invalidate(ppn); err != nil {
		return err
	}
	blk, _ := b.cfg.SplitPPN(ppn)
	b.vbm.NoteInvalidated(blk)
	return nil
}

// Read implements FTL: it serves a host read of lpn, attributing cost
// and the fast/slow placement split. Returns false when unmapped.
func (b *Base) Read(lpn uint64) (bool, error) {
	_, mapped, err := b.ReadMappedOOB(lpn)
	return mapped, err
}

// ReadMappedOOB is Read returning the OOB metadata of the page
// that served the read, so strategies that need the stored tag (PPB's
// level accounting) avoid a second mapping lookup per host read.
func (b *Base) ReadMappedOOB(lpn uint64) (nand.OOB, bool, error) {
	if !b.table.inRange(lpn) {
		return nand.OOB{}, false, fmt.Errorf("ftl: read of lpn %d beyond logical space %d", lpn, b.table.pages())
	}
	ppn, ok := b.table.Lookup(lpn)
	if !ok {
		b.stats.UnmappedReads.Inc()
		return nand.OOB{}, false, nil
	}
	oob, cost, err := b.dev.Read(ppn)
	if err != nil {
		return nand.OOB{}, false, err
	}
	if oob.LPN != lpn {
		return nand.OOB{}, false, fmt.Errorf("ftl: mapping corruption: lpn %d mapped to page holding %d", lpn, oob.LPN)
	}
	b.stats.HostReads.Inc()
	b.stats.ReadLatency.Observe(cost)
	_, page := b.cfg.SplitPPN(ppn)
	if page >= b.cfg.PagesPerBlock/2 {
		b.stats.FastReads.Inc()
	} else {
		b.stats.SlowReads.Inc()
	}
	return oob, true, nil
}

// ProgramNext programs one page into the next free page of blk's open
// part and returns the device cost and the programmed PPN. It is the
// one page-programming path of every strategy: the strategy only picks
// blk, normally one of its pools' write points (vblock.Manager.Open),
// and the manager's Advance closes that write point when the page fills
// the part.
func (b *Base) ProgramNext(blk nand.BlockID, oob nand.OOB) (time.Duration, nand.PPN, error) {
	page, err := b.vbm.Advance(blk)
	if err != nil {
		return 0, 0, err
	}
	ppn := b.cfg.PPNForBlockPage(blk, page)
	cost, err := b.dev.Program(ppn, oob)
	if err != nil {
		return 0, 0, err
	}
	return cost, ppn, nil
}

// CheckWrite validates the target of a host write.
func (b *Base) CheckWrite(lpn uint64) error {
	if !b.table.inRange(lpn) {
		return fmt.Errorf("ftl: write of lpn %d beyond logical space %d", lpn, b.table.pages())
	}
	return nil
}

// InvalidateOld drops the previous physical page of lpn, if any.
func (b *Base) InvalidateOld(lpn uint64) error {
	if old, had := b.table.Lookup(lpn); had {
		if err := b.Invalidate(old); err != nil {
			return err
		}
	}
	return nil
}

// CheckMapping verifies that every mapped LPN points at a valid page
// holding that LPN (read-your-writes at the metadata level).
//
//flashvet:testonly test oracle: ftl and core property tests call it after every operation
func (b *Base) CheckMapping() error {
	for lpn := uint64(0); lpn < b.table.pages(); lpn++ {
		ppn, ok := b.table.Lookup(lpn)
		if !ok {
			continue
		}
		if st := b.dev.State(ppn); st != nand.PageValid {
			return fmt.Errorf("ftl: lpn %d maps to %s page %d", lpn, st, ppn)
		}
		if oob := b.dev.PeekOOB(ppn); oob.LPN != lpn {
			return fmt.Errorf("ftl: lpn %d maps to page holding lpn %d", lpn, oob.LPN)
		}
	}
	return nil
}
