package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/hotness"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// Tag values stored in page OOB by the hotness-aware baselines.
const (
	tagCold uint8 = iota
	tagHot
)

// GreedySpeed is the strawman the paper argues against in §2.2 and
// Figure 3: it applies the paper's size-check identifier and places hot
// data directly on fast pages and cold data on slow pages — of the *same*
// physical blocks. Reads get faster, but every block ends up half
// long-lived cold data and half quickly-invalidated hot data, so GC must
// copy roughly half a block per erase.
type GreedySpeed struct {
	Base
	ident hotness.SizeCheck

	slow, fast       vblock.VB
	slowOpen, fastOk bool
}

var _ FTL = (*GreedySpeed)(nil)

// NewGreedySpeed builds the strawman FTL, classifying writes with the
// paper's size-check at the device page size.
func NewGreedySpeed(dev *nand.Device, opts Options) (*GreedySpeed, error) {
	vbm, err := vblock.NewManager(dev.Config(), 2, 2)
	if err != nil {
		return nil, err
	}
	// The strawman mixes hot and cold data in one shared pool, so the
	// whole pool counts as hot-stream for affinity dispatch purposes.
	vbm.MarkHotPools(0)
	b, err := NewBase(dev, vbm, opts)
	if err != nil {
		return nil, err
	}
	return &GreedySpeed{Base: b, ident: hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}}, nil
}

// Name implements FTL.
func (g *GreedySpeed) Name() string { return "greedy-speed" }

// Read implements FTL.
func (g *GreedySpeed) Read(lpn uint64) (bool, error) { return g.ReadMapped(lpn) }

// Write implements FTL.
func (g *GreedySpeed) Write(lpn uint64, reqSize int) error {
	if err := g.CheckWrite(lpn); err != nil {
		return err
	}
	if err := g.MaybeGC(g.program, nil); err != nil {
		return err
	}
	if err := g.InvalidateOld(lpn); err != nil {
		return err
	}
	tag := tagCold
	if g.ident.Classify(lpn, reqSize) == hotness.AreaHot {
		tag = tagHot
	}
	cost, ppn, err := g.program(nand.OOB{LPN: lpn, Tag: tag})
	if err != nil {
		return err
	}
	g.table.Set(lpn, ppn)
	g.stats.HostWrites.Inc()
	g.stats.WriteLatency.Observe(cost)
	return nil
}

// program places the page by its tag: hot data goes to the open fast VB
// (when one exists), cold data to the open slow VB. When the preferred VB
// is unavailable the write spills into the other — the strawman has no
// pairing discipline to protect.
func (g *GreedySpeed) program(oob nand.OOB) (time.Duration, nand.PPN, error) {
	var vb *vblock.VB
	if oob.Tag == tagHot {
		if err := g.ensureFast(); err == nil {
			vb = &g.fast
		} else if err := g.ensureSlow(); err == nil {
			vb = &g.slow
		} else {
			return 0, 0, err
		}
	} else {
		if err := g.ensureSlow(); err == nil {
			vb = &g.slow
		} else if err := g.ensureFast(); err == nil {
			vb = &g.fast
		} else {
			return 0, 0, err
		}
	}
	page, vbFull, _, err := g.vbm.Advance(vb.Block)
	if err != nil {
		return 0, 0, err
	}
	ppn := g.cfg.PPNForBlockPage(vb.Block, page)
	cost, err := g.dev.Program(ppn, oob)
	if err != nil {
		return 0, 0, err
	}
	if vbFull {
		if vb == &g.slow {
			g.slowOpen = false
		} else {
			g.fastOk = false
		}
	}
	return cost, ppn, nil
}

// ensureSlow opens a slow VB (part 0 of a fresh block) if none is open.
func (g *GreedySpeed) ensureSlow() error {
	if g.slowOpen {
		return nil
	}
	vb, err := g.vbm.AllocateFirst(0) // single shared pool
	if err != nil {
		return fmt.Errorf("%w (greedy-speed)", ErrNoSpace)
	}
	g.slow, g.slowOpen = vb, true
	return nil
}

// ensureFast opens a fast VB from the pending queue (a block whose slow
// half already filled) if none is open.
func (g *GreedySpeed) ensureFast() error {
	if g.fastOk {
		return nil
	}
	vb, ok := g.vbm.OpenPending(0)
	if !ok {
		return fmt.Errorf("%w (greedy-speed: no fast half ready)", ErrNoSpace)
	}
	g.fast, g.fastOk = vb, true
	return nil
}
