package ftl

import (
	"errors"
	"time"

	"ppbflash/internal/nand"
)

// ReprogramFunc relocates one valid page during GC and returns the device
// cost of the program plus the new physical page. It must not start
// another collection, directly or through the FTL's Write: collectBlock
// reuses one scratch slice per FTL, so a re-entered collection returns
// an error instead of running.
type ReprogramFunc func(oob nand.OOB) (time.Duration, nand.PPN, error)

// errGCReentered reports a collection started from inside a reprogram
// callback.
var errGCReentered = errors.New("ftl: garbage collection re-entered from a reprogram callback")

// MaybeGC is the garbage-collection trigger every FTL in this module
// calls before a host write: when the free pool has fallen to the
// low-water mark it runs the collector. The check is kept this small so
// it inlines into each strategy's Write; the collector stays out of line.
//
// reprogram relocates valid pages through the strategy's own placement.
// Within each collected block, pages for which fastFirst returns true
// relocate before the rest. PPB uses this to let fast-deserving data
// (iron-hot, cold) claim the fast virtual-block space of a GC burst ahead
// of slow-deserving data: the paper does not fix a relocation order, and
// this one makes the progressive migration converge. A nil fastFirst
// keeps physical page order.
func (b *Base) MaybeGC(reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if b.vbm.FreeBlocks() > b.gcLow {
		return nil
	}
	return b.gc(reprogram, fastFirst)
}

// gc is the collector shared by every FTL in this module: greedy victim
// selection (most invalid pages, wear-aware tie-break), valid-page
// relocation, erase, release. It runs until the free pool recovers to
// the high-water mark or nothing reclaimable remains. Open blocks are
// never victims: the manager skips them itself (vblock.Manager.IsOpen).
//
// Victims come from the manager's incrementally maintained invalid-count
// index, so each pick costs O(candidates at the top count) instead of a
// scan over every block; the tests cross-check it against a full scan.
func (b *Base) gc(reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	vbm := b.vbm
	// Under Options.Wear == WearAware the greedy rule is relaxed by
	// wearWindow invalid-count buckets.
	window := 0
	if b.opts.Wear == WearAware {
		window = wearWindow(&b.cfg)
	}
	b.stats.GCRuns.Inc()
	for vbm.FreeBlocks() < b.gcHigh {
		victim, ok := vbm.PickVictim(true, b.dev.EraseCount, window)
		if !ok {
			// Desperation: consider partially filled blocks.
			victim, ok = vbm.PickVictim(false, b.dev.EraseCount, window)
			if !ok {
				return nil // nothing reclaimable; let the write fail if truly full
			}
		}
		before := vbm.FreeBlocks()
		retiredBefore := b.dev.RetiredBlocks()
		if err := b.collectBlock(victim, reprogram, fastFirst); err != nil {
			return err
		}
		if vbm.FreeBlocks() <= before && b.dev.RetiredBlocks() == retiredBefore {
			// Relocation consumed the reclaimed space: the high-water
			// target is not reachable right now. Stop rather than churn
			// nearly-valid blocks (GC must always make forward progress).
			// A collection that retired its victim made a different kind
			// of progress — retirement is permanent, so looping on it is
			// bounded by the block count and must continue, or a wave of
			// bad blocks would wedge reclaim below the high-water mark.
			return nil
		}
	}
	// Free space is healthy again: do the proactive reliability work —
	// scrub blocks flagged for retirement, then rebalance wear. Both are
	// bounded and guarded so they never push the pool back into GC.
	if err := b.scrubRetireCandidates(reprogram, fastFirst); err != nil {
		return err
	}
	return b.maybeWearSwap(reprogram, fastFirst)
}

// scrubRetireCandidates drains the device's retire-candidate queue
// while free space allows: each candidate's surviving valid pages are
// relocated and the block is retired instead of freed. A candidate
// skipped here (open block, or the pool ran low) keeps its pending
// recommendation and is retired at its next normal GC erase instead, so
// retirement never depends on the scrub running.
func (b *Base) scrubRetireCandidates(reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if !b.dev.ReliabilityEnabled() {
		return nil
	}
	for b.vbm.FreeBlocks() > b.gcLow {
		cand, ok := b.dev.NextRetireCandidate()
		if !ok {
			return nil
		}
		if _, owned := b.vbm.PoolOf(cand); !owned || b.vbm.IsOpen(cand) {
			continue
		}
		if err := b.collectBlock(cand, reprogram, fastFirst); err != nil {
			return err
		}
	}
	return nil
}

// maybeWearSwap runs one static wear-leveling swap per GC invocation
// under Options.Wear == WearThresholdSwap: when the spread between the
// device's highest erase count and the least-worn full block reaches
// wearThreshold, that cold block is collected even though it
// may be fully valid, so its under-worn cells rejoin circulation. The
// max erase count is O(1) (the device maintains it incrementally); only
// the min scan pays a ForEachFull walk, and only while the policy is
// active and free space is healthy.
func (b *Base) maybeWearSwap(reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if b.opts.Wear != WearThresholdSwap {
		return nil
	}
	if b.vbm.FreeBlocks() <= b.gcLow {
		return nil
	}
	max := b.dev.MaxEraseCount()
	if max < wearThreshold {
		return nil
	}
	var cand nand.BlockID
	var candWear uint32
	found := false
	b.vbm.ForEachFull(func(blk nand.BlockID) bool {
		if w := b.dev.EraseCount(blk); !found || w < candWear {
			cand, candWear, found = blk, w, true
		}
		return true
	})
	if !found || max-candWear < wearThreshold {
		return nil
	}
	return b.collectBlock(cand, reprogram, fastFirst)
}

// collectBlock relocates the victim's valid pages (optionally in two
// passes ordered by fastFirst), erases it and returns it to the free
// pool, charging all device time to GC.
//
// Each relocation is a read -> program chain: the copy's program is
// armed (nand.Device.After) behind its source read's completion, and the
// victim erase behind the last relocation's program — so a cross-chip
// copy never programs data before that data was read, and the block is
// not erased before its contents are safe elsewhere. On a single chip
// every op serializes on one clock and the floors are inert.
func (b *Base) collectBlock(victim nand.BlockID,
	reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if b.gcCollecting {
		return errGCReentered
	}
	b.gcCollecting = true
	defer func() { b.gcCollecting = false }()
	vbm := b.vbm
	// A partially-used victim may still be queued as "pending": its next
	// part could otherwise be opened as a relocation target mid-collect.
	vbm.UnqueuePending(victim)
	poolIdx := 0
	if pool, ok := vbm.PoolOf(victim); ok {
		poolIdx = pool
		if poolIdx >= len(b.stats.GCPoolErases) {
			poolIdx = len(b.stats.GCPoolErases) - 1
		}
	}
	var lastReloc time.Duration // latest relocation finish (the erase floor)
	relocate := func(page int) error {
		ppn := b.cfg.PPNForBlockPage(victim, page)
		oob, readCost, err := b.dev.Read(ppn)
		if err != nil {
			return err
		}
		b.dev.After(b.dev.LastFinish()) // program waits for its source read
		progCost, newPPN, err := reprogram(oob)
		if err != nil {
			return err
		}
		if fin := b.dev.LastFinish(); fin > lastReloc {
			lastReloc = fin
		}
		b.table.Set(oob.LPN, newPPN)
		if err := b.Invalidate(ppn); err != nil {
			return err
		}
		b.stats.GCCopies.Inc()
		b.stats.GCPoolCopies[poolIdx].Inc()
		b.stats.GCLatency.Observe(readCost + progCost)
		return nil
	}
	// The deferred-page scratch lives on the Base and is reused across
	// collections: GC runs millions of times per replay and must not
	// allocate per collected block.
	deferred := b.gcDeferred[:0]
	for page := 0; page < b.cfg.PagesPerBlock; page++ {
		ppn := b.cfg.PPNForBlockPage(victim, page)
		if b.dev.State(ppn) != nand.PageValid {
			continue
		}
		if fastFirst != nil && !fastFirst(b.dev.PeekOOB(ppn)) {
			deferred = append(deferred, page)
			continue
		}
		if err := relocate(page); err != nil {
			return err
		}
	}
	b.gcDeferred = deferred[:0] // keep the (possibly grown) array
	for _, page := range deferred {
		if err := relocate(page); err != nil {
			return err
		}
	}
	if lastReloc > 0 {
		b.dev.After(lastReloc) // erase waits for the last relocation
	}
	eraseCost, err := b.dev.Erase(victim)
	if err != nil {
		return err
	}
	if b.dev.RetireRecommended(victim) {
		// The erase crossed the block's P/E limit (or earlier
		// uncorrectable reads flagged it): retire instead of freeing.
		// Contents are already safe — every valid page was relocated
		// above — so capacity shrinks by exactly one clean block.
		b.dev.MarkRetired(victim)
		err = vbm.Retire(victim)
	} else {
		err = vbm.Release(victim)
	}
	if err != nil {
		return err
	}
	b.stats.GCErases.Inc()
	b.stats.GCPoolErases[poolIdx].Inc()
	b.stats.GCLatency.Observe(eraseCost)
	return nil
}
