package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// Conventional is the paper's baseline FTL: page-level mapping with
// active blocks filled strictly in page order, greedy garbage
// collection, and no awareness of the per-page speed asymmetry —
// "current FTL designs assume all pages have the same access speed"
// (§2.2).
//
// Host writes and GC relocations use separate active blocks, as real
// controllers do; besides being the realistic baseline, this prevents GC
// bursts from systematically claiming the slow first half of each block
// and accidentally gifting host data the fast half.
type Conventional struct {
	Base
	active [2]nand.BlockID // 0 = host stream, 1 = GC stream
	open   [2]bool
}

const (
	convHost = 0
	convGC   = 1
)

var _ FTL = (*Conventional)(nil)

// NewConventional builds the baseline FTL over the device.
func NewConventional(dev *nand.Device, opts Options) (*Conventional, error) {
	// A k=1 virtual-block manager degenerates to a plain block allocator
	// with an ordered free pool, exactly what a conventional FTL keeps.
	vbm, err := vblock.NewManager(dev.Config(), 1, 2)
	if err != nil {
		return nil, err
	}
	// The host stream is the latency-sensitive one; under a hot/cold
	// affinity dispatch the GC stream keeps its multi-ms erases off the
	// host chips.
	vbm.MarkHotPools(convHost)
	b, err := NewBase(dev, vbm, opts)
	if err != nil {
		return nil, err
	}
	return &Conventional{Base: b}, nil
}

// Name implements FTL.
func (c *Conventional) Name() string { return "conventional" }

// Read implements FTL.
func (c *Conventional) Read(lpn uint64) (bool, error) { return c.ReadMapped(lpn) }

// Write implements FTL.
func (c *Conventional) Write(lpn uint64, _ int) error {
	if err := c.CheckWrite(lpn); err != nil {
		return err
	}
	if err := c.MaybeGC(c.programGC, nil); err != nil {
		return err
	}
	if err := c.InvalidateOld(lpn); err != nil {
		return err
	}
	cost, ppn, err := c.program(convHost, nand.OOB{LPN: lpn})
	if err != nil {
		return err
	}
	c.Map().Set(lpn, ppn)
	st := c.Stats()
	st.HostWrites.Inc()
	st.WriteLatency.Observe(cost)
	return nil
}

// program appends one page to the stream's active block, opening a new
// block when needed, and returns the device cost and the programmed PPN.
func (c *Conventional) program(stream int, oob nand.OOB) (cost time.Duration, ppn nand.PPN, err error) {
	if !c.open[stream] {
		vb, err := c.vbm.AllocateFirst(stream)
		if err != nil {
			// Free pool empty: spill into the other stream's open block
			// rather than failing outright.
			other := 1 - stream
			if !c.open[other] {
				return 0, 0, fmt.Errorf("%w (conventional)", ErrNoSpace)
			}
			stream = other
		} else {
			c.active[stream], c.open[stream] = vb.Block, true
		}
	}
	blk := c.active[stream]
	page, _, blockFull, err := c.vbm.Advance(blk)
	if err != nil {
		return 0, 0, err
	}
	ppn = c.cfg.PPNForBlockPage(blk, page)
	cost, err = c.Device().Program(ppn, oob)
	if err != nil {
		return 0, 0, err
	}
	if blockFull {
		c.open[stream] = false
	}
	return cost, ppn, nil
}

func (c *Conventional) programGC(oob nand.OOB) (time.Duration, nand.PPN, error) {
	return c.program(convGC, oob)
}
