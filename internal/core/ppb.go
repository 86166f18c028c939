// Package core implements the paper's contribution: the Progressive
// Performance Boosting (PPB) strategy for 3D charge-trap NAND flash.
//
// PPB extends a conventional page-mapping FTL with three mechanisms:
//
//  1. Four-level hot/cold identification (§3.2). A pluggable first-stage
//     identifier (the paper's case study is the size check) diverts each
//     write to the hot or cold data area; within the areas, re-access
//     frequency splits hot data into {iron-hot, hot} and cold data into
//     {cold, icy-cold}.
//  2. Virtual blocks (§3.3). Physical blocks are split into a slow and a
//     fast virtual block (VB); blocks are paired so that both VBs of a
//     block serve the same area, keeping garbage collection as cheap as
//     a conventional hot/cold separation.
//  3. Hot/cold area bookkeeping (§3.4). A two-level LRU tracks hot data,
//     an access-frequency table tracks cold data, and Algorithm 1's
//     diversion rules keep the slow/fast VB pipelines of an area from
//     starving each other. Both trackers are sized from the device's
//     logical space (see trackerCap), not configured.
//
// Crucially, PPB is *progressive*: identifying data as iron-hot (or
// cold) never triggers an immediate copy. Data migrates to a page of the
// right speed only when it is rewritten by the host or relocated by GC,
// so the strategy adds no write or GC overhead of its own (§4.2). The
// code keeps that split: PPB hands ftl.NewBase only its placement —
// placeHost for host writes, reprogramGC for GC relocations and
// gcSlowFirst for their order — and ftl.Base runs the conventional
// write, mapping, invalidation and greedy GC around it.
//
// On multi-chip devices PPB inherits chip placement from the
// virtual-block manager's dispatch policy: by default each pool's
// freshly allocated blocks rotate across chips (channel striping), and
// the alternative policies (least-loaded, hot/cold chip affinity) apply
// to PPB without any PPB-specific chip logic beyond marking its
// hot-area pools.
package core

import (
	"fmt"
	"time"

	"ppbflash/internal/ftl"
	"ppbflash/internal/hotness"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// Options configures the PPB strategy on top of the base FTL options.
type Options struct {
	// FTL carries the shared FTL options (over-provisioning, dispatch,
	// deferral, suspend, wear, reliability, tenants); the GC watermarks
	// are derived from the device and over-provisioning (gcWatermarks).
	FTL ftl.Options
	// SplitFactor is how many virtual blocks each physical block is
	// divided into (the paper's default and our default is 2; §3.3.1
	// notes more are possible at higher bookkeeping cost).
	SplitFactor int
	// Identifier is the first-stage hot/cold mechanism; nil defaults to
	// the paper's size-check at the device page size.
	Identifier hotness.Identifier
}

// coldPromoteReads is the re-access count that turns icy-cold data
// cold.
const coldPromoteReads = 2

// trackerCap is the entry capacity of each list of the two-level LRU:
// 1/64 of the logical pages, at least 64. The "demote if not modified"
// horizon is four times it (staleWindow). The cold-area frequency table
// needs no bound: it spans the whole logical space, because the cold
// area is most of the device and a smaller table would age out exactly
// the read-popular entries it exists to find.
func trackerCap(logicalPages uint64) int {
	return max(int(logicalPages/64), 64)
}

// Stats extends the base FTL stats with PPB-specific activity.
type Stats struct {
	// Migrations counts pages whose speed group changed when they were
	// rewritten or GC-relocated — the progressive data movement of §3.4.
	Migrations metrics.Counter
	// Diversions counts writes that could not use their level's VB and
	// spilled into the paired list (Algorithm 1 lines 10-12/17-18).
	Diversions metrics.Counter
	// Demotions counts hot-area chunks handed to the cold area.
	Demotions metrics.Counter
	// StaleDemotions counts "demote if not modified" events during GC.
	StaleDemotions metrics.Counter
	// FastFullDemotions counts iron-hot updates demoted because the
	// iron-hot VB list had no fast space (Figure 10b II).
	FastFullDemotions metrics.Counter
	// LevelWrites histograms programs per hotness level.
	LevelWrites [4]metrics.Counter
	// LevelReads histograms host reads per stored level tag.
	LevelReads [4]metrics.Counter
}

// Allocation pools. The paper's pairing constraint is "one physical
// block, one area"; within that, this implementation subdivides each
// area into pools of similar *lifetime*, because pairing long-lived data
// with quickly-dying data in one block forces GC to re-copy the
// long-lived half on every collection:
//
//   - hot/host: fresh hot-area churn (hot slow halves, iron-hot fast).
//   - hot/GC: hot-area data that survived a collection.
//   - cold/host: fresh cold-area (bulk/ingest) writes — these die
//     together when their extent is overwritten.
//   - cold/GC-library: relocated cold-area data with read evidence; the
//     fast halves serve cold (write-once-read-many) chunks and the slow
//     halves warm icy chunks (read at least once). Both are long-lived,
//     so these blocks are stable and their fast placement persists.
//   - cold/GC-dark: relocated cold-area data never read since written
//     (backup-like or about-to-die); kept out of the library blocks.
const (
	poolHotHost = iota
	poolHotGC
	poolColdHost
	poolColdGCLib
	poolColdGCDark
	numPools
)

// poolArea maps a pool back to its paper-level area.
func poolArea(pool int) hotness.Area {
	if pool == poolHotHost || pool == poolHotGC {
		return hotness.AreaHot
	}
	return hotness.AreaCold
}

// areaPools lists the pools of an area (used by the pressure fallback).
func areaPools(area hotness.Area) []int {
	if area == hotness.AreaHot {
		return []int{poolHotHost, poolHotGC}
	}
	return []int{poolColdHost, poolColdGCLib, poolColdGCDark}
}

// PPB is the progressive performance boosting FTL.
type PPB struct {
	ftl.Base
	vbm   *vblock.Manager
	ident hotness.Identifier
	hot   *hotness.TwoLevelLRU
	cold  *hotness.FreqTable

	// staleWindow is the "demote if not modified" horizon: a hot-list
	// chunk relocated by GC whose last write is more than staleWindow
	// host writes ago is demoted to the cold area.
	staleWindow uint64
	writeSeq    uint64
	ppbStats    Stats
}

var _ ftl.FTL = (*PPB)(nil)

// New builds a PPB FTL over the device.
func New(dev *nand.Device, opt Options) (*PPB, error) {
	if opt.SplitFactor == 0 {
		opt.SplitFactor = 2
	}
	vbm, err := vblock.NewManager(dev.Config(), opt.SplitFactor, numPools)
	if err != nil {
		return nil, err
	}
	// The hot-area pools carry the frequently rewritten host churn; under
	// a hot/cold affinity dispatch the bulk/library/dark cold pools (and
	// their GC erases) stay off the hot chips.
	vbm.MarkHotPools(poolHotHost, poolHotGC)
	p := &PPB{vbm: vbm, ident: opt.Identifier}
	if p.ident == nil {
		p.ident = hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}
	}
	low, high := gcWatermarks(dev.Config(), opt.FTL.OverProvision)
	p.Base, err = ftl.NewBase(dev, vbm,
		ftl.Placement{Host: p.placeHost, Relocate: p.reprogramGC, RelocateFirst: p.gcSlowFirst},
		low, high, opt.FTL)
	if err != nil {
		return nil, err
	}
	logical := p.LogicalPages()
	listCap := trackerCap(logical)
	p.hot = hotness.NewTwoLevelLRU(listCap, listCap, logical)
	p.cold = hotness.NewFreqTable(logical, coldPromoteReads)
	p.staleWindow = 4 * uint64(listCap)
	return p, nil
}

// gcWatermarks returns PPB's GC watermarks. PPB keeps more blocks
// partially open than a conventional FTL (one pipeline per pool), so it
// wants a deeper GC reserve — but the watermarks must stay reachable:
// over-provisioning (overProvision, 0 for the ftl default) bounds how
// many blocks can ever be free, and partially-open pipeline blocks
// consume part of that slack. The slack comes from ftl.LogicalPagesFor,
// the function NewBase sizes the logical space with.
func gcWatermarks(cfg nand.Config, overProvision float64) (low, high int) {
	logicalBlocks := int((ftl.LogicalPagesFor(cfg, overProvision) + uint64(cfg.PagesPerBlock) - 1) /
		uint64(cfg.PagesPerBlock))
	slack := cfg.TotalBlocks() - logicalBlocks
	low = cfg.TotalBlocks() / 64
	if low < 6 {
		low = 6
	}
	if max := slack / 3; low > max && max >= 2 {
		low = max
	} else if low > slack-1 && slack > 1 {
		low = slack - 1
	}
	if low < 1 {
		low = 1
	}
	high = low + 3
	if max := slack / 2; high > max {
		high = max
	}
	if high <= low {
		high = low + 1
	}
	return low, high
}

// Name implements ftl.FTL.
func (p *PPB) Name() string { return "ppb" }

// PPBStats returns the strategy-specific counters.
func (p *PPB) PPBStats() *Stats { return &p.ppbStats }

// Read implements ftl.FTL. Reads update the hotness trackers (promote on
// read) but never move data: migration is progressive.
func (p *PPB) Read(lpn uint64) (bool, error) {
	oob, mapped, err := p.ReadMappedOOB(lpn)
	if err != nil || !mapped {
		return mapped, err
	}
	if oob.Tag < 4 {
		p.ppbStats.LevelReads[oob.Tag].Inc()
	}
	if _, dem, demoted, ok := p.hot.OnRead(lpn); ok {
		// A read-promotion is a 1-for-1 swap, so demoted is never set
		// today — but the tracker contract says any demotion must reach
		// the cold area, so honor it rather than rely on that invariant.
		p.handleDemotion(dem, demoted)
		return true, nil
	}
	if _, ok := p.cold.OnRead(lpn); ok {
		return true, nil
	}
	// Untracked data (prefill before tracking, or evicted): start cold
	// bookkeeping so repeated reads can still promote it.
	p.cold.OnWrite(lpn)
	p.cold.OnRead(lpn)
	return true, nil
}

// placeHost is PPB's host-write placement: it classifies the write
// (advancing the write sequence), then programs it into its level's
// area at its level's speed.
func (p *PPB) placeHost(lpn uint64, reqSize int) (time.Duration, nand.PPN, error) {
	p.writeSeq++
	lvl := p.classifyWrite(lpn, reqSize)
	// Figure 10b II: when an iron-hot chunk is updated but the iron-hot
	// VB list has no free fast space, the chunk is demoted to the hot
	// list instead of spilling iron-hot data onto slow pages. This
	// feedback keeps the iron-hot set sized to the fast capacity, so the
	// chunks that stay iron-hot are reliably served from fast pages.
	if lvl == hotness.IronHot && !p.fastSpaceAvailable(poolHotHost) {
		p.handleDemotion(p.hot.Demote(lpn))
		p.ppbStats.FastFullDemotions.Inc()
		lvl = p.currentLevel(lpn, uint8(hotness.Hot))
	}
	pool := poolColdHost
	if lvl.HotArea() {
		pool = poolHotHost
	}
	return p.programAt(pool, lvl, lvl.Fast(), lpn)
}

// classifyWrite runs the four-level identification for a host write and
// updates the trackers. Tracked hot-area chunks keep their level
// (an update is exactly what hot data does); tracked cold-area chunks are
// re-judged by the first-stage identifier, since a rewrite contradicts
// "write once"; unknown chunks go where the identifier sends them,
// entering at the slow level of their area.
func (p *PPB) classifyWrite(lpn uint64, reqSize int) hotness.Level {
	if _, ok := p.hot.Level(lpn); ok {
		lvl, dem, demoted := p.hot.OnWrite(lpn, p.writeSeq)
		p.handleDemotion(dem, demoted)
		return lvl
	}
	area := p.ident.Classify(lpn, reqSize)
	if area == hotness.AreaHot {
		p.cold.Remove(lpn)
		lvl, dem, demoted := p.hot.OnWrite(lpn, p.writeSeq)
		p.handleDemotion(dem, demoted)
		return lvl
	}
	p.cold.OnWrite(lpn) // insert or reset: rewritten data is new data
	return hotness.IcyCold
}

func (p *PPB) handleDemotion(dem hotness.Demotion, demoted bool) {
	if !demoted {
		return
	}
	p.cold.InsertDemoted(dem.LPN)
	p.ppbStats.Demotions.Inc()
}

// currentLevel returns the chunk's present hotness from the trackers,
// falling back to the level stored in the page OOB at write time.
func (p *PPB) currentLevel(lpn uint64, tag uint8) hotness.Level {
	if lvl, ok := p.hot.Level(lpn); ok {
		return lvl
	}
	if lvl, ok := p.cold.Level(lpn); ok {
		return lvl
	}
	if lvl := hotness.Level(tag); lvl.Valid() {
		return lvl
	}
	return hotness.IcyCold
}

// programAt stores a copy of lpn into the given pool at the wanted
// speed, following Algorithm 1's allocation and diversion rules. lvl is
// the data's hotness level (stored in OOB and counted); wantFast usually
// equals lvl.Fast() but GC relocation into the library pool reserves the
// fast halves for the most re-read tier. A copy whose speed group
// differs from the one lpn still maps to counts as a migration.
func (p *PPB) programAt(pool int, lvl hotness.Level, wantFast bool, lpn uint64) (time.Duration, nand.PPN, error) {
	blk, err := p.target(pool, wantFast)
	if err != nil {
		return 0, 0, err
	}
	cost, ppn, err := p.ProgramNext(blk, nand.OOB{LPN: lpn, Tag: uint8(lvl)})
	if err != nil {
		return 0, 0, err
	}
	p.ppbStats.LevelWrites[lvl].Inc()
	if old, ok := p.Map().Lookup(lpn); ok {
		_, oldPage := p.Geom().SplitPPN(old)
		_, newPage := p.Geom().SplitPPN(ppn)
		if p.vbm.FastPart(p.vbm.PartOf(oldPage)) != p.vbm.FastPart(p.vbm.PartOf(newPage)) {
			p.ppbStats.Migrations.Inc()
		}
	}
	return cost, ppn, nil
}

// fastSpaceAvailable reports whether a fast write in the pool can be
// served from genuinely fast pages right now (an open fast VB with room,
// or a pending fast part ready to open).
func (p *PPB) fastSpaceAvailable(pool int) bool {
	_, open := p.vbm.Open(pool, true)
	return open || p.vbm.PendingCountGroup(pool, true) > 0
}

// maxPendingBacklog bounds how many allocated-but-unopened fast halves
// a pool may accumulate before slow writes are diverted into them
// instead of opening fresh blocks. It keeps the slow and fast pipelines
// concurrently open (the paper's Figure 8 shows VB2 joining the hot list
// while VB1 still serves the iron-hot list) without stranding space.
const maxPendingBacklog = 1

// target resolves the block a write into the pool should program, from
// the write points the manager keeps per pool and speed group
// (vblock.Manager.Open):
//
//  1. the pool's write point of the wanted speed;
//  2. a pending VB of the wanted speed group (same pool);
//  3. in pools with genuine fast-page demand, slow writes with a small
//     pending backlog open a fresh block, keeping a pending fast part
//     standing for the pool's fast level (Figure 8 steps 3-4: the hot
//     list takes block N+1's slow VB while the iron-hot list is still
//     filling block N's fast VB); bulk pools pack tight instead;
//  4. diversion into the pool's other-speed write point or pending VB
//     (Algorithm 1: "divert write request to the other VB list" when one
//     list is full — free space must never be stranded);
//  5. a freshly allocated physical block, whose slow part 0 opens as the
//     pool's slow write point (lines 8-10: "allocate new VB to Hot VB
//     list; divert write request to Hot VB list");
//  6. under free-pool exhaustion, any write point or pending VB of the
//     same area (other pools) — utilization trumps pool separation, and
//     the paper's area purity still holds.
//
// Every VB it opens becomes that pool's write point of its group, and
// it opens one only where that write point is empty.
func (p *PPB) target(pool int, wantFast bool) (nand.BlockID, error) {
	if blk, ok := p.vbm.Open(pool, wantFast); ok {
		return blk, nil
	}
	if vb, ok := p.vbm.OpenPendingGroup(pool, wantFast); ok {
		return vb.Block, nil
	}
	if !wantFast && reservesFast(pool) && p.vbm.PendingCountGroup(pool, true) <= maxPendingBacklog {
		// Keeping one standing pending fast part means the pool's fast
		// level can almost always find true fast space; slow writes only
		// start eating fast halves (diversion below) once the backlog is
		// ahead of fast demand.
		if vb, err := p.vbm.AllocateFirst(pool); err == nil {
			return vb.Block, nil
		}
		// Free pool exhausted mid-GC: fall through to diversion.
	}
	if wantFast {
		// A fast-level write with no fast space in its own pool borrows
		// fast space from a sibling pool of the same area before settling
		// for slow pages — without this, a pool with no slow-level
		// traffic could never complete a block, and its fast level would
		// be stuck on slow pages forever.
		for _, pl := range areaPools(poolArea(pool)) {
			if pl == pool {
				continue
			}
			if blk, ok := p.vbm.Open(pl, true); ok {
				p.ppbStats.Diversions.Inc()
				return blk, nil
			}
			if vb, ok := p.vbm.OpenPendingGroup(pl, true); ok {
				p.ppbStats.Diversions.Inc()
				return vb.Block, nil
			}
		}
	}
	if blk, ok := p.vbm.Open(pool, !wantFast); ok {
		p.ppbStats.Diversions.Inc()
		return blk, nil
	}
	if vb, ok := p.vbm.OpenPendingGroup(pool, !wantFast); ok {
		p.ppbStats.Diversions.Inc()
		return vb.Block, nil
	}
	if vb, err := p.vbm.AllocateFirst(pool); err == nil {
		if wantFast {
			p.ppbStats.Diversions.Inc()
		}
		return vb.Block, nil
	}
	// Free pool empty: fall back to any write point or pending VB of the
	// same area in any pool.
	area := poolArea(pool)
	for _, pl := range areaPools(area) {
		for _, fast := range [2]bool{wantFast, !wantFast} {
			if blk, ok := p.vbm.Open(pl, fast); ok {
				p.ppbStats.Diversions.Inc()
				return blk, nil
			}
		}
	}
	for _, pl := range areaPools(area) {
		for _, fast := range [2]bool{wantFast, !wantFast} {
			if vb, ok := p.vbm.OpenPendingGroup(pl, fast); ok {
				p.ppbStats.Diversions.Inc()
				return vb.Block, nil
			}
		}
	}
	return 0, fmt.Errorf("%w (ppb: %s area)", ftl.ErrNoSpace, area)
}

// reservesFast reports whether the pool hosts a level that genuinely
// wants fast pages (iron-hot or cold), and therefore keeps a pending
// fast part in reserve. Bulk pools (host ingest, dark relocations) pack
// tight instead — their fast halves just absorb overflow.
func reservesFast(pool int) bool {
	return pool == poolHotHost || pool == poolHotGC || pool == poolColdGCLib
}

// gcSlowFirst orders GC relocation so slow-deserving data (hot, icy)
// moves first: filling slow halves opens the paired fast halves
// (in-order programming), so by the time the victim's fast-deserving
// data (iron-hot, cold) relocates, fast pages actually exist for it.
func (p *PPB) gcSlowFirst(oob nand.OOB) bool {
	return !p.currentLevel(oob.LPN, oob.Tag).Fast()
}

// reprogramGC relocates one valid page during GC. This is where the
// progressive migration completes: the page is re-placed according to
// its *current* level, and hot-list chunks that were never modified
// since insertion are demoted to the cold area ("demote if not
// modified", Figure 6). Cold-area relocations are routed by read
// evidence: chunks read since their write join the stable library pool
// (cold on fast halves, warm icy on slow halves); never-read chunks go
// to the dark pool.
func (p *PPB) reprogramGC(oob nand.OOB) (time.Duration, nand.PPN, error) {
	lvl := p.currentLevel(oob.LPN, oob.Tag)
	if lvl == hotness.Hot {
		if last, ok := p.hot.LastWrite(oob.LPN); ok && p.writeSeq-last > p.staleWindow {
			p.handleDemotion(p.hot.Demote(oob.LPN))
			p.ppbStats.StaleDemotions.Inc()
			lvl = p.currentLevel(oob.LPN, uint8(hotness.IcyCold))
		}
	}
	// Figure 10b II at relocation time: an iron-hot chunk that cannot be
	// re-placed on a fast page is demoted rather than parked on a slow
	// page with a stale iron-hot tag. Its next read re-promotes it, and
	// the next update migrates it fast.
	if lvl == hotness.IronHot && !p.fastSpaceAvailable(poolHotGC) {
		p.handleDemotion(p.hot.Demote(oob.LPN))
		p.ppbStats.FastFullDemotions.Inc()
		lvl = p.currentLevel(oob.LPN, uint8(hotness.Hot))
	}
	pool := poolHotGC
	wantFast := lvl.Fast()
	if !lvl.HotArea() {
		switch {
		case lvl == hotness.Cold:
			pool = poolColdGCLib
			// The library's fast halves go to the most re-read tier;
			// the long tail of read-evidence data fills the stable slow
			// halves of the same blocks.
			wantFast = p.cold.ReadCount(oob.LPN) >= 2*coldPromoteReads
		case p.readSinceWrite(oob.LPN):
			pool = poolColdGCLib // warm icy: read evidence, long-lived
		default:
			pool = poolColdGCDark
		}
	}
	return p.programAt(pool, lvl, wantFast, oob.LPN)
}

// readSinceWrite reports whether the cold tracker has seen at least one
// read of lpn since its last write.
func (p *PPB) readSinceWrite(lpn uint64) bool {
	lvl, ok := p.cold.Level(lpn)
	if !ok {
		return false
	}
	if lvl == hotness.Cold {
		return true
	}
	return p.cold.ReadCount(lpn) > 0
}

// CheckAreaPurity verifies the area-purity invariant: no physical block
// holds both hot-area and cold-area data.
//
//flashvet:testonly test oracle: core's property tests call it after every operation
func (p *PPB) CheckAreaPurity() error {
	dev := p.Device()
	cfg := p.Config()
	for b := 0; b < cfg.TotalBlocks(); b++ {
		blockPool, known := p.vbm.PoolOf(nand.BlockID(b))
		blockArea := poolArea(blockPool)
		for pg := 0; pg < cfg.PagesPerBlock; pg++ {
			ppn := cfg.PPNForBlockPage(nand.BlockID(b), pg)
			if dev.State(ppn) == nand.PageFree {
				continue
			}
			lvl := hotness.Level(dev.PeekOOB(ppn).Tag)
			if !lvl.Valid() {
				return fmt.Errorf("core: block %d page %d has invalid level tag %d", b, pg, dev.PeekOOB(ppn).Tag)
			}
			pageArea := hotness.AreaCold
			if lvl.HotArea() {
				pageArea = hotness.AreaHot
			}
			if !known {
				return fmt.Errorf("core: block %d holds data but is unowned", b)
			}
			if pageArea != blockArea {
				return fmt.Errorf("core: block %d owned by %s area holds %s data (page %d)",
					b, blockArea, lvl, pg)
			}
		}
	}
	return nil
}
