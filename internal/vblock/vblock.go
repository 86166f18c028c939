// Package vblock implements the paper's virtual-block concept (§3.3):
// each physical block is split into K virtual blocks (VBs) of adjacent
// page speed — with the default K=2, VB 2n covers the slow first half of
// block n and VB 2n+1 the fast second half.
//
// The manager enforces the paper's allocation constraints:
//
//   - VBs of one physical block may only serve a single pool, so garbage
//     collection never meets mixed blocks (Figure 8). A pool is the
//     paper's hot or cold area; strategies may subdivide areas into
//     several pools (e.g. separating host writes from GC relocations)
//     without weakening the paper's pairing constraint.
//   - Because NAND pages program strictly in order, a later VB can only
//     be allocated after the earlier VB of the same block is fully used
//     (Figure 9's lifecycle: Free -> VB 2n allocated -> VB 2n filled ->
//     VB 2n+1 allocatable -> block full -> waiting for GC).
//   - Each pool fills one open VB per speed group at a time (§3.3's VB
//     lists): the manager keeps that write point (Open), sets it when a
//     part opens (AllocateFirst, OpenPendingGroup) and clears it when
//     Advance fills the part, so strategies keep no open-block state of
//     their own.
//   - Free blocks are handed out lowest-numbered first ("arranged
//     according to their original physical block number") within a chip;
//     on multi-chip devices the DispatchPolicy picks the chip of each
//     fresh block. The default Striped policy rotates round-robin so
//     consecutive host write streams stripe over the channels; LeastLoaded
//     follows the per-chip service clocks to the idlest chip,
//     HotColdAffinity pins hot-stream pools to a chip subset, and
//     TenantPartition gives each tenant its own chips. With Chips=1 every
//     policy degenerates to the original lowest-numbered-first order.
package vblock

import (
	"errors"
	"fmt"

	"ppbflash/internal/nand"
)

// VB identifies one virtual block: a contiguous page range of a physical
// block. Part 0 is the slowest range.
type VB struct {
	Block nand.BlockID
	Part  int
	Start int // first page (inclusive)
	End   int // last page (exclusive)
}

// ID returns the paper's virtual block number (block*K + part).
func (v VB) ID(k int) uint64 { return uint64(v.Block)*uint64(k) + uint64(v.Part) }

// String renders the VB for diagnostics.
func (v VB) String() string {
	return fmt.Sprintf("vb(b%d/p%d pages %d-%d)", v.Block, v.Part, v.Start, v.End-1)
}

// blockPhase tracks where a block is in the Figure 9 lifecycle.
type blockPhase uint8

const (
	phaseFree    blockPhase = iota
	phaseOwned              // at least one VB allocated, block not yet full
	phaseFull               // all pages programmed; waiting for GC
	phaseRetired            // bad block: permanently out of the lifecycle
)

// nilBlock terminates the intrusive bucket lists of the victim index.
const nilBlock = int32(-1)

type blockInfo struct {
	phase     blockPhase
	pool      int
	allocated int  // number of parts handed out
	cursor    int  // next page to program
	pending   bool // block sits in its pool's pending queue

	// Victim-index state: invalid counts pages reported through
	// NoteInvalidated since the last release; prev/next link the block
	// into its invalid-count bucket (meaningful only while inIdx).
	invalid int
	inIdx   bool
	prev    int32
	next    int32
}

// Errors reported for manager misuse.
var (
	ErrNoFreeBlocks = errors.New("vblock: no free blocks")
	ErrBadPool      = errors.New("vblock: pool index out of range")
	ErrBlockFull    = errors.New("vblock: advancing a full block")
	ErrNoOpenPart   = errors.New("vblock: advancing past the open part")
)

// Manager tracks VB allocation across all blocks of a device config.
//
// Besides the Figure 9 lifecycle it maintains an incremental garbage
// collection victim index: blocks with at least one invalidated page sit
// in intrusive doubly-linked lists bucketed by invalid-page count, so the
// greedy victim (most invalid pages) is found by walking buckets from the
// top instead of scanning every block. Invalidations are reported by the
// FTL through NoteInvalidated; erase/release maintenance is automatic.
//
// It is also the one record of each pool's write points: per pool, the
// block whose open part it is filling in the slow and in the fast speed
// group (Open).
//
// The flashvet:boundsafe marker below makes cmd/flashvet verify that
// every exported introspection accessor bounds-checks its pool and
// block indices explicitly.
//
//flashvet:boundsafe
type Manager struct {
	cfg      nand.Config
	k        int
	partLen  int
	blocks   []blockInfo
	pendingQ [][]nand.BlockID // FIFO of blocks whose next part is allocatable, per pool
	// open holds each pool's write points, indexed by speed group (0
	// slow, 1 fast): the block whose open part of that group the pool
	// opened last and has not yet filled, nilBlock when there is none.
	open    [][2]int32
	fullCnt int
	retired int // blocks permanently removed via Retire

	// Free pool, one lowest-first heap per chip. Which chip serves the
	// next allocation is the dispatch policy's call; nextChip is the
	// Striped rotation cursor. freeCnt caches the total across heaps.
	free     []blockHeap
	nextChip int
	freeCnt  int

	// Dispatch-policy state: the policy consulted on every fresh-block
	// allocation (Striped unless SetDispatch says otherwise), the
	// per-chip clock clock-aware policies read, and the FTL-declared
	// hot-stream pools HotColdAffinity pins.
	policy  DispatchPolicy
	clock   ChipClock
	hotPool []bool

	// Tenant state for multi-tenant dispatch: tenants is the tenant
	// count declared through SetTenants (0 or 1 = single-tenant, the
	// pre-tenant behavior of every policy), active is the tenant the FTL
	// says the current request belongs to (SetActiveTenant). Both are
	// consulted by TenantPartition and HotColdAffinity only, so leaving
	// them at zero is bit-identical to the pre-tenant manager.
	tenants int
	active  int

	buckets []int32 // victim index: bucket heads by invalid count
	maxInv  int     // upper bound on the highest occupied bucket
}

// NewManager builds a manager splitting every block into k virtual
// blocks, allocating to the given number of independent pools.
// PagesPerBlock must be divisible by k, and k must be even or 1 so the
// slow/fast groups are well defined.
func NewManager(cfg nand.Config, k, pools int) (*Manager, error) {
	if k < 1 {
		return nil, fmt.Errorf("vblock: split factor %d < 1", k)
	}
	if pools < 1 {
		return nil, fmt.Errorf("vblock: pool count %d < 1", pools)
	}
	if cfg.PagesPerBlock%k != 0 {
		return nil, fmt.Errorf("vblock: PagesPerBlock %d not divisible by split factor %d", cfg.PagesPerBlock, k)
	}
	if k > 1 && k%2 != 0 {
		return nil, fmt.Errorf("vblock: split factor %d must be even (slow/fast halves)", k)
	}
	m := &Manager{
		cfg:      cfg,
		k:        k,
		partLen:  cfg.PagesPerBlock / k,
		blocks:   make([]blockInfo, cfg.TotalBlocks()),
		pendingQ: make([][]nand.BlockID, pools),
		open:     make([][2]int32, pools),
		buckets:  make([]int32, cfg.PagesPerBlock+1),
		hotPool:  make([]bool, pools),
	}
	for i := range m.open {
		m.open[i] = [2]int32{nilBlock, nilBlock}
	}
	for i := range m.buckets {
		m.buckets[i] = nilBlock
	}
	// One free heap per chip; a sorted slice is already a valid min-heap.
	m.free = make([]blockHeap, cfg.Chips)
	for chip := range m.free {
		heap := make(blockHeap, cfg.BlocksPerChip)
		for i := range heap {
			heap[i] = int32(chip*cfg.BlocksPerChip + i)
		}
		m.free[chip] = heap
	}
	m.freeCnt = cfg.TotalBlocks()
	return m, nil
}

// chipOf returns the chip owning a flat block id.
func (m *Manager) chipOf(b nand.BlockID) int { return int(b) / m.cfg.BlocksPerChip }

// SetDispatch installs the chip-dispatch policy consulted by every
// subsequent AllocateFirst, along with the per-chip clock the
// clock-aware policies (LeastLoaded, HotColdAffinity, TenantPartition)
// read.
func (m *Manager) SetDispatch(p DispatchPolicy, clock ChipClock) {
	m.policy = p
	m.clock = clock
}

// SetTenants declares how many tenants share the device, enabling the
// tenant-aware dispatch behaviors (TenantPartition's per-tenant chip
// ranges, HotColdAffinity's intra-subset tenant slicing). Values below
// 2 restore the single-tenant behavior every policy had before tenants
// existed.
func (m *Manager) SetTenants(n int) {
	if n < 0 {
		n = 0
	}
	m.tenants = n
}

// SetActiveTenant tells the manager which tenant the request currently
// being served belongs to, so allocations it triggers — host writes and
// any GC they cascade into — dispatch under that tenant's placement.
// The FTL sets it per request; values are clamped into the declared
// tenant range at use, so a stray ID degrades to the last tenant
// instead of corrupting dispatch.
func (m *Manager) SetActiveTenant(t int) { m.active = t }

// activeTenant returns the tenant the current request belongs to,
// clamped into [0, tenants) (0 when single-tenant).
func (m *Manager) activeTenant() int {
	if m.tenants <= 1 {
		return 0
	}
	t := m.active
	if t < 0 {
		t = 0
	}
	if t >= m.tenants {
		t = m.tenants - 1
	}
	return t
}

// MarkHotPools declares which pools carry hot-stream data (host-facing
// frequently rewritten traffic). FTLs call it once at construction;
// HotColdAffinity pins these pools to its hot chip subset. Unmarked
// pools are cold; out-of-range indices are ignored.
func (m *Manager) MarkHotPools(pools ...int) {
	for _, p := range pools {
		if p >= 0 && p < len(m.hotPool) {
			m.hotPool[p] = true
		}
	}
}

// freePush returns a block to its chip's free heap.
func (m *Manager) freePush(b nand.BlockID) {
	m.free[m.chipOf(b)].push(int32(b))
	m.freeCnt++
}

// K returns the split factor.
func (m *Manager) K() int { return m.k }

// PartRange returns the page span [start, end) of a part.
func (m *Manager) PartRange(part int) (start, end int) {
	return part * m.partLen, (part + 1) * m.partLen
}

// PartOf returns the part index containing the given page.
func (m *Manager) PartOf(page int) int { return page / m.partLen }

// FastPart reports whether the part belongs to the fast group (the later
// k/2 parts). With k=1 there is no fast group.
func (m *Manager) FastPart(part int) bool {
	if m.k == 1 {
		return false
	}
	return part >= m.k/2
}

// group returns the write-point index of a speed group: 0 slow, 1 fast.
func group(fast bool) int {
	if fast {
		return 1
	}
	return 0
}

// vb builds the VB value for a block and part.
func (m *Manager) vb(b nand.BlockID, part int) VB {
	s, e := m.PartRange(part)
	return VB{Block: b, Part: part, Start: s, End: e}
}

// FreeBlocks returns how many blocks are in the free pool (all chips).
func (m *Manager) FreeBlocks() int { return m.freeCnt }

func (m *Manager) checkPool(pool int) error {
	if pool < 0 || pool >= len(m.pendingQ) {
		return fmt.Errorf("%w: %d of %d", ErrBadPool, pool, len(m.pendingQ))
	}
	return nil
}

// PendingCountGroup returns how many pending blocks of the pool have a
// next part in the requested speed group; 0 for out-of-range pools.
func (m *Manager) PendingCountGroup(pool int, fast bool) int {
	if pool < 0 || pool >= len(m.pendingQ) {
		return 0
	}
	n := 0
	for _, b := range m.pendingQ[pool] {
		if m.FastPart(m.blocks[b].allocated) == fast {
			n++
		}
	}
	return n
}

// PoolOf returns the owning pool of a block; ok is false for free and
// retired blocks (neither belongs to any pool).
func (m *Manager) PoolOf(b nand.BlockID) (int, bool) {
	if uint64(b) >= uint64(len(m.blocks)) {
		return 0, false
	}
	bi := &m.blocks[b]
	if bi.phase == phaseFree || bi.phase == phaseRetired {
		return 0, false
	}
	return bi.pool, true
}

// AllocateFirst takes a free block, assigns it to the pool and returns
// its slow part 0 VB, which becomes the pool's slow write point. The
// dispatch policy picks the chip (the default Striped rotates
// round-robin across chips — channel striping); within a chip the
// lowest-numbered free block is handed out first. With a single chip
// every policy degenerates to the original lowest-numbered-first order.
func (m *Manager) AllocateFirst(pool int) (VB, error) {
	if err := m.checkPool(pool); err != nil {
		return VB{}, err
	}
	if m.freeCnt == 0 {
		return VB{}, ErrNoFreeBlocks
	}
	chip := m.pickChip(pool)
	if chip < 0 {
		// freeCnt said blocks exist but every heap is empty: the free
		// accounting is corrupt. Fail loudly rather than pop from an
		// empty heap.
		return VB{}, fmt.Errorf("vblock: free accounting corrupt: %d free blocks cached but every chip heap is empty", m.freeCnt)
	}
	b := nand.BlockID(m.free[chip].pop())
	m.freeCnt--
	bi := &m.blocks[b]
	*bi = blockInfo{phase: phaseOwned, pool: pool, allocated: 1, cursor: 0}
	m.open[pool][0] = int32(b) // part 0 is slow at every k
	return m.vb(b, 0), nil
}

// OpenPendingGroup pops the oldest block of the pool whose next part
// became allocatable and belongs to the requested speed group, opens
// that part and makes it the pool's write point of the group. ok is
// false when no such block is pending. With k=2 a pending part is
// always fast; with k>2 a block's second slow part is also reached
// through the pending queue.
func (m *Manager) OpenPendingGroup(pool int, fast bool) (VB, bool) {
	if pool < 0 || pool >= len(m.pendingQ) {
		return VB{}, false
	}
	q := m.pendingQ[pool]
	for i, b := range q {
		bi := &m.blocks[b]
		if m.FastPart(bi.allocated) != fast {
			continue
		}
		m.pendingQ[pool] = append(q[:i], q[i+1:]...)
		bi.pending = false
		part := bi.allocated
		bi.allocated++
		m.open[pool][group(fast)] = int32(b)
		return m.vb(b, part), true
	}
	return VB{}, false
}

// Advance consumes the next programmable page of the block's open part
// and returns its index. When that page fills the part, the part stops
// being its pool's write point, and the block either becomes full or,
// while later parts remain, joins its pool's pending queue.
func (m *Manager) Advance(b nand.BlockID) (page int, err error) {
	bi := &m.blocks[b]
	switch {
	case bi.phase == phaseFree:
		return 0, fmt.Errorf("vblock: advancing free block %d", b)
	case bi.phase == phaseFull:
		return 0, fmt.Errorf("%w: block %d", ErrBlockFull, b)
	case bi.cursor >= bi.allocated*m.partLen:
		return 0, fmt.Errorf("%w: block %d cursor %d, %d parts allocated",
			ErrNoOpenPart, b, bi.cursor, bi.allocated)
	}
	page = bi.cursor
	bi.cursor++
	if bi.cursor%m.partLen == 0 { // the open part just filled
		if wp := &m.open[bi.pool][group(m.FastPart(m.PartOf(page)))]; *wp == int32(b) {
			*wp = nilBlock
		}
		if bi.allocated == m.k && bi.cursor == m.cfg.PagesPerBlock {
			bi.phase = phaseFull
			m.fullCnt++
		} else if !bi.pending {
			bi.pending = true
			m.pendingQ[bi.pool] = append(m.pendingQ[bi.pool], b)
		}
	}
	return page, nil
}

// UnqueuePending removes the block from its area's pending queue without
// releasing it. GC calls this before collecting a partially-used victim
// so relocations cannot be routed into the victim's own unallocated
// parts.
func (m *Manager) UnqueuePending(b nand.BlockID) {
	bi := &m.blocks[b]
	if !bi.pending {
		return
	}
	q := m.pendingQ[bi.pool]
	for i, blk := range q {
		if blk == b {
			m.pendingQ[bi.pool] = append(q[:i], q[i+1:]...)
			break
		}
	}
	bi.pending = false
}

// Release returns an erased block to the free pool. Any owned block may
// be released: GC collects full blocks, and partially used ones when
// free space is starved. Releasing a free or retired block is an error.
func (m *Manager) Release(b nand.BlockID) error {
	bi := &m.blocks[b]
	if bi.phase == phaseFree || bi.phase == phaseRetired {
		return fmt.Errorf("vblock: releasing unowned block %d (phase %d)", b, bi.phase)
	}
	m.leave(b)
	*bi = blockInfo{}
	m.freePush(b)
	return nil
}

// Retire permanently removes an owned or full block from the lifecycle:
// it leaves its pool, write points, pending queue and the victim index,
// and is never returned to the free pool — the usable capacity honestly
// shrinks. The FTL calls it after relocating the block's surviving valid
// pages; retiring an already-retired block is a no-op, and retiring a
// free block is an error (pull it from the free heap by allocating it
// first, which never happens in practice because the device only flags
// blocks at erase or read time).
func (m *Manager) Retire(b nand.BlockID) error {
	bi := &m.blocks[b]
	switch bi.phase {
	case phaseRetired:
		return nil
	case phaseFree:
		return fmt.Errorf("vblock: retiring free block %d", b)
	}
	m.leave(b)
	*bi = blockInfo{phase: phaseRetired}
	m.retired++
	return nil
}

// leave takes an owned or full block out of the full count, its pool's
// pending queue and write points, and the victim index: the exit Release
// and Retire share.
func (m *Manager) leave(b nand.BlockID) {
	bi := &m.blocks[b]
	if bi.phase == phaseFull {
		m.fullCnt--
	}
	m.UnqueuePending(b)
	for g, wp := range m.open[bi.pool] {
		if wp == int32(b) {
			m.open[bi.pool][g] = nilBlock
		}
	}
	m.idxRemove(b)
}

// NoteInvalidated records that one page of the block was invalidated on
// the device, keeping the victim index current. FTLs must call it after
// every successful device Invalidate; release resets the count.
func (m *Manager) NoteInvalidated(b nand.BlockID) {
	bi := &m.blocks[b]
	if bi.phase == phaseFree || bi.phase == phaseRetired || bi.invalid >= m.cfg.PagesPerBlock {
		return
	}
	m.idxRemove(b)
	bi.invalid++
	m.idxPush(b)
}

// InvalidCount returns how many pages of the block were reported invalid
// through NoteInvalidated since it was last released; 0 for out-of-range
// block IDs.
func (m *Manager) InvalidCount(b nand.BlockID) int {
	if uint64(b) >= uint64(len(m.blocks)) {
		return 0
	}
	return m.blocks[b].invalid
}

// idxPush links the block at the head of its invalid-count bucket.
func (m *Manager) idxPush(b nand.BlockID) {
	bi := &m.blocks[b]
	head := &m.buckets[bi.invalid]
	bi.prev, bi.next = nilBlock, *head
	if *head != nilBlock {
		m.blocks[*head].prev = int32(b)
	}
	*head = int32(b)
	bi.inIdx = true
	if bi.invalid > m.maxInv {
		m.maxInv = bi.invalid
	}
}

// idxRemove unlinks the block from the victim index (no-op when absent).
func (m *Manager) idxRemove(b nand.BlockID) {
	bi := &m.blocks[b]
	if !bi.inIdx {
		return
	}
	if bi.prev != nilBlock {
		m.blocks[bi.prev].next = bi.next
	} else {
		m.buckets[bi.invalid] = bi.next
	}
	if bi.next != nilBlock {
		m.blocks[bi.next].prev = bi.prev
	}
	bi.inIdx = false
}

// IsOpen reports whether the block has an allocated part with pages
// still unprogrammed: a part some strategy is filling. Every strategy
// writes only into its pools' write points (Open), so each open block is
// one of them; tests may hold several open blocks per pool. IsOpen is
// derived from the block's own state, and garbage collection reads it
// to skip the blocks it must not touch. A full, pending, free or retired
// block is not open; neither is an out-of-range block ID.
func (m *Manager) IsOpen(b nand.BlockID) bool {
	if uint64(b) >= uint64(len(m.blocks)) {
		return false
	}
	return m.isOpen(&m.blocks[b])
}

func (m *Manager) isOpen(bi *blockInfo) bool {
	return bi.phase == phaseOwned && bi.cursor < bi.allocated*m.partLen
}

// Open returns the pool's write point in the speed group: the block
// whose open part of that group the pool opened last and has not yet
// filled. ok is false when there is none, and for out-of-range pools.
func (m *Manager) Open(pool int, fast bool) (nand.BlockID, bool) {
	if pool < 0 || pool >= len(m.open) {
		return 0, false
	}
	b := m.open[pool][group(fast)]
	return nand.BlockID(b), b != nilBlock
}

// PickVictim returns the garbage-collection victim, never an open block
// (IsOpen) and only a fully-programmed one when fullOnly is set (the
// desperation pass over partially-filled blocks clears it). The walk
// visits invalid-count buckets from the top and keeps the least-worn
// eligible block, so window 0 is greedy (most invalid pages, ties to the
// lowest wear). A positive window relaxes greedy for wear leveling: the
// least-worn eligible block within window buckets of the top wins,
// trading a bounded amount of write amplification for a flatter wear
// distribution. When those buckets hold no eligible block the walk
// settles on the first lower bucket that does, so GC never stalls.
//
// Cost is bounded by the candidates in the buckets visited, independent
// of the device's block count, rather than a ForEachFull/ForEachOwned
// scan.
func (m *Manager) PickVictim(fullOnly bool, wear func(nand.BlockID) uint32, window int) (nand.BlockID, bool) {
	for m.maxInv >= 1 && m.buckets[m.maxInv] == nilBlock {
		m.maxInv--
	}
	var best nand.BlockID
	var bestWear uint32
	found := false
	for inv := m.maxInv; inv >= 1; inv-- {
		for node := m.buckets[inv]; node != nilBlock; node = m.blocks[node].next {
			bi := &m.blocks[node]
			if (fullOnly && bi.phase != phaseFull) || m.isOpen(bi) {
				continue
			}
			if w := wear(nand.BlockID(node)); !found || w < bestWear {
				best, bestWear, found = nand.BlockID(node), w, true
			}
		}
		if found && inv <= m.maxInv-window {
			return best, true
		}
	}
	return best, found
}

// ForEachFull calls fn for every full block until fn returns false.
func (m *Manager) ForEachFull(fn func(nand.BlockID) bool) {
	for i := range m.blocks {
		if m.blocks[i].phase == phaseFull {
			if !fn(nand.BlockID(i)) {
				return
			}
		}
	}
}

// ForEachOwned calls fn for every owned or full block until fn returns
// false (free and retired blocks are skipped). Used by starved GC to
// consider partially used victims.
func (m *Manager) ForEachOwned(fn func(nand.BlockID) bool) {
	for i := range m.blocks {
		if p := m.blocks[i].phase; p == phaseOwned || p == phaseFull {
			if !fn(nand.BlockID(i)) {
				return
			}
		}
	}
}

// CheckInvariants validates internal consistency (used by property
// tests): cursor within allocated parts, pending flags matching queues,
// every write point an open part of its pool and speed group, and pool
// counts summing to the block count.
func (m *Manager) CheckInvariants() error {
	for pool, wps := range m.open {
		for g, wp := range wps {
			if wp == nilBlock {
				continue
			}
			speed := [2]string{"slow", "fast"}[g]
			if wp < 0 || int(wp) >= len(m.blocks) {
				return fmt.Errorf("vblock: pool %d %s write point is block %d, out of range", pool, speed, wp)
			}
			bi := &m.blocks[wp]
			if !m.isOpen(bi) || bi.pool != pool || group(m.FastPart(m.PartOf(bi.cursor))) != g {
				return fmt.Errorf("vblock: pool %d %s write point is block %d, not an open %s part of that pool (state %+v)",
					pool, speed, wp, speed, *bi)
			}
		}
	}
	inQueue := make(map[nand.BlockID]int)
	for pool, q := range m.pendingQ {
		for _, b := range q {
			if _, dup := inQueue[b]; dup {
				return fmt.Errorf("vblock: block %d queued twice", b)
			}
			inQueue[b] = pool
		}
	}
	var full, retired int
	for i := range m.blocks {
		b := nand.BlockID(i)
		bi := &m.blocks[i]
		qPool, queued := inQueue[b]
		if queued != bi.pending {
			return fmt.Errorf("vblock: block %d pending flag %v but queued %v", b, bi.pending, queued)
		}
		if queued && qPool != bi.pool {
			return fmt.Errorf("vblock: block %d queued under wrong pool", b)
		}
		if bi.inIdx != (bi.invalid > 0 && bi.phase != phaseFree) {
			return fmt.Errorf("vblock: block %d inIdx=%v with %d invalid, phase %d",
				b, bi.inIdx, bi.invalid, bi.phase)
		}
		if bi.invalid < 0 || bi.invalid > m.cfg.PagesPerBlock {
			return fmt.Errorf("vblock: block %d invalid count %d out of range", b, bi.invalid)
		}
		switch bi.phase {
		case phaseFree:
			if bi.allocated != 0 || bi.cursor != 0 || bi.pending {
				return fmt.Errorf("vblock: free block %d has state %+v", b, *bi)
			}
		case phaseOwned:
			if bi.allocated < 1 || bi.allocated > m.k {
				return fmt.Errorf("vblock: block %d allocated %d of %d parts", b, bi.allocated, m.k)
			}
			if bi.cursor > bi.allocated*m.partLen {
				return fmt.Errorf("vblock: block %d cursor %d beyond allocated parts", b, bi.cursor)
			}
			if bi.pending && bi.cursor != bi.allocated*m.partLen {
				return fmt.Errorf("vblock: block %d pending but open part not full", b)
			}
		case phaseFull:
			full++
			if bi.cursor != m.cfg.PagesPerBlock || bi.allocated != m.k {
				return fmt.Errorf("vblock: full block %d cursor %d allocated %d", b, bi.cursor, bi.allocated)
			}
			if bi.pending {
				return fmt.Errorf("vblock: full block %d still pending", b)
			}
		case phaseRetired:
			retired++
			if bi.allocated != 0 || bi.cursor != 0 || bi.pending || bi.inIdx {
				return fmt.Errorf("vblock: retired block %d has state %+v", b, *bi)
			}
		}
	}
	if full != m.fullCnt {
		return fmt.Errorf("vblock: full count %d, cached %d", full, m.fullCnt)
	}
	if retired != m.retired {
		return fmt.Errorf("vblock: retired count %d, cached %d", retired, m.retired)
	}
	freeSum := 0
	for chip, heap := range m.free {
		freeSum += heap.Len()
		for _, b := range heap {
			if got := m.chipOf(nand.BlockID(b)); got != chip {
				return fmt.Errorf("vblock: block %d in chip %d free heap, belongs to chip %d", b, chip, got)
			}
			if m.blocks[b].phase != phaseFree {
				return fmt.Errorf("vblock: non-free block %d in free heap", b)
			}
		}
	}
	if freeSum != m.freeCnt {
		return fmt.Errorf("vblock: free heaps hold %d blocks, cached %d", freeSum, m.freeCnt)
	}
	// Victim index: every bucket's nodes must carry that bucket's invalid
	// count, links must be symmetric, each indexed block appears once, and
	// maxInv bounds the occupied buckets.
	seen := 0
	for inv, head := range m.buckets {
		prev := nilBlock
		for node := head; node != nilBlock; node = m.blocks[node].next {
			bi := &m.blocks[node]
			if !bi.inIdx || bi.invalid != inv {
				return fmt.Errorf("vblock: block %d in bucket %d with inIdx=%v invalid=%d",
					node, inv, bi.inIdx, bi.invalid)
			}
			if bi.prev != prev {
				return fmt.Errorf("vblock: block %d bucket link broken (prev %d, want %d)",
					node, bi.prev, prev)
			}
			if inv > m.maxInv {
				return fmt.Errorf("vblock: occupied bucket %d above maxInv %d", inv, m.maxInv)
			}
			prev = node
			if seen++; seen > len(m.blocks) {
				return fmt.Errorf("vblock: victim index cycle detected")
			}
		}
	}
	indexed := 0
	for i := range m.blocks {
		if m.blocks[i].inIdx {
			indexed++
		}
	}
	if indexed != seen {
		return fmt.Errorf("vblock: %d blocks flagged inIdx, %d linked", indexed, seen)
	}
	return nil
}

// blockHeap is a min-heap of block indices (lowest block number first).
// Hand-rolled rather than container/heap so that the per-allocation and
// per-release heap operations never box ints into interfaces — block
// allocation sits on the replay hot path.
type blockHeap []int32

func (h blockHeap) Len() int { return len(h) }

func (h *blockHeap) push(x int32) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *blockHeap) pop() int32 {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r] < s[child] {
			child = r
		}
		if s[i] <= s[child] {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}
