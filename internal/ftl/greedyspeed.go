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
}

var _ FTL = (*GreedySpeed)(nil)

// NewGreedySpeed builds the strawman FTL, classifying writes with the
// paper's size-check at the device page size.
func NewGreedySpeed(dev *nand.Device, opts Options) (*GreedySpeed, error) {
	vbm, err := vblock.NewManager(dev.Config(), 2, 1)
	if err != nil {
		return nil, err
	}
	// The strawman mixes hot and cold data in one shared pool, so the
	// whole pool counts as hot-stream for affinity dispatch purposes.
	vbm.MarkHotPools(0)
	low, high := gcWatermarks(dev.Config())
	b, err := NewBase(dev, vbm, low, high, opts)
	if err != nil {
		return nil, err
	}
	return &GreedySpeed{Base: b, ident: hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}}, nil
}

// Name implements FTL.
func (g *GreedySpeed) Name() string { return "greedy-speed" }

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

// program places the page by its tag: hot data goes to the pool's fast
// write point (when one can be opened), cold data to its slow one. When
// the preferred one is unavailable the write spills into the other — the
// strawman has no pairing discipline to protect.
func (g *GreedySpeed) program(oob nand.OOB) (time.Duration, nand.PPN, error) {
	hot := oob.Tag == tagHot
	blk, err := g.writePoint(hot)
	if err != nil {
		if blk, err = g.writePoint(!hot); err != nil {
			return 0, 0, err
		}
	}
	return g.ProgramNext(blk, oob)
}

// writePoint returns the single shared pool's write point of the speed
// group, opening one when there is none: the slow part 0 of a fresh
// block, or the fast half of a pending block whose slow half filled.
func (g *GreedySpeed) writePoint(fast bool) (nand.BlockID, error) {
	if blk, ok := g.vbm.Open(0, fast); ok {
		return blk, nil
	}
	if !fast {
		vb, err := g.vbm.AllocateFirst(0)
		if err != nil {
			return 0, fmt.Errorf("%w (greedy-speed)", ErrNoSpace)
		}
		return vb.Block, nil
	}
	vb, ok := g.vbm.OpenPendingGroup(0, true)
	if !ok {
		return 0, fmt.Errorf("%w (greedy-speed: no fast half ready)", ErrNoSpace)
	}
	return vb.Block, nil
}
