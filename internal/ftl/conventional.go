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
}

// The two streams are the manager's pools, each with one slow write
// point (k=1 has no fast group).
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
	low, high := gcWatermarks(dev.Config())
	b, err := NewBase(dev, vbm, low, high, opts)
	if err != nil {
		return nil, err
	}
	return &Conventional{Base: b}, nil
}

// Name implements FTL.
func (c *Conventional) Name() string { return "conventional" }

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

// program appends one page to the stream's write point, opening a new
// block when it has none, and returns the device cost and the
// programmed PPN.
func (c *Conventional) program(stream int, oob nand.OOB) (time.Duration, nand.PPN, error) {
	blk, ok := c.vbm.Open(stream, false)
	if !ok {
		vb, err := c.vbm.AllocateFirst(stream)
		if err == nil {
			blk = vb.Block
		} else if blk, ok = c.vbm.Open(1-stream, false); !ok {
			// Free pool empty and no other stream's block to spill into.
			return 0, 0, fmt.Errorf("%w (conventional)", ErrNoSpace)
		}
	}
	return c.ProgramNext(blk, oob)
}

func (c *Conventional) programGC(oob nand.OOB) (time.Duration, nand.PPN, error) {
	return c.program(convGC, oob)
}
