package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/hotness"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// HotColdSplit is the classic hot/cold separation FTL (the Chang/Hsieh
// line of work the paper builds on): hot and cold data fill *different*
// physical blocks, which keeps GC cheap, but placement ignores the page
// speed asymmetry entirely. The ablation pair GreedySpeed/HotColdSplit
// brackets PPB: speed-aware-but-mixed vs separated-but-speed-blind.
type HotColdSplit struct {
	Base
	ident hotness.SizeCheck
}

var _ FTL = (*HotColdSplit)(nil)

// NewHotColdSplit builds the separation-only FTL, classifying writes
// with the paper's size-check at the device page size.
func NewHotColdSplit(dev *nand.Device, opts Options) (*HotColdSplit, error) {
	vbm, err := vblock.NewManager(dev.Config(), 1, 2)
	if err != nil {
		return nil, err
	}
	vbm.MarkHotPools(int(hotness.AreaHot))
	low, high := gcWatermarks(dev.Config())
	b, err := NewBase(dev, vbm, low, high, opts)
	if err != nil {
		return nil, err
	}
	return &HotColdSplit{Base: b, ident: hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}}, nil
}

// Name implements FTL.
func (h *HotColdSplit) Name() string { return "hotcold-split" }

// Write implements FTL.
func (h *HotColdSplit) Write(lpn uint64, reqSize int) error {
	if err := h.CheckWrite(lpn); err != nil {
		return err
	}
	if err := h.MaybeGC(h.program, nil); err != nil {
		return err
	}
	if err := h.InvalidateOld(lpn); err != nil {
		return err
	}
	area := h.ident.Classify(lpn, reqSize)
	tag := tagCold
	if area == hotness.AreaHot {
		tag = tagHot
	}
	cost, ppn, err := h.program(nand.OOB{LPN: lpn, Tag: tag})
	if err != nil {
		return err
	}
	h.table.Set(lpn, ppn)
	h.stats.HostWrites.Inc()
	h.stats.WriteLatency.Observe(cost)
	return nil
}

// program appends to the write point of the page's area.
func (h *HotColdSplit) program(oob nand.OOB) (time.Duration, nand.PPN, error) {
	area := int(hotness.AreaCold)
	if oob.Tag == tagHot {
		area = int(hotness.AreaHot)
	}
	blk, ok := h.vbm.Open(area, false)
	if !ok {
		vb, err := h.vbm.AllocateFirst(area)
		if err != nil {
			return 0, 0, fmt.Errorf("%w (hotcold-split)", ErrNoSpace)
		}
		blk = vb.Block
	}
	return h.ProgramNext(blk, oob)
}
