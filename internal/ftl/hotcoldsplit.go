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
	h := &HotColdSplit{}
	low, high := gcWatermarks(dev.Config())
	h.Base, err = NewBase(dev, vbm, Placement{Host: h.placeHost, Relocate: h.program}, low, high, opts)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Name implements FTL.
func (h *HotColdSplit) Name() string { return "hotcold-split" }

// placeHost places a host write in the area of its size tag.
func (h *HotColdSplit) placeHost(lpn uint64, reqSize int) (time.Duration, nand.PPN, error) {
	return h.program(nand.OOB{LPN: lpn, Tag: h.sizeTag(lpn, reqSize)})
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
