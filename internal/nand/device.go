package nand

import (
	"errors"
	"fmt"
	"time"

	"ppbflash/internal/metrics"
)

// PageState tracks the FTL-visible lifecycle of a physical page.
type PageState uint8

// Page states.
const (
	PageFree PageState = iota // erased, never programmed since last erase
	PageValid
	PageInvalid
)

// String returns the state name.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// OOB is the out-of-band (spare area) metadata stored with each page.
// The simulator does not store page payloads; Stamp lets tests verify
// read-your-writes without 16 KB buffers.
type OOB struct {
	LPN   uint64 // logical page number of the stored data
	Stamp uint64 // write version stamp, opaque to the device
	Tag   uint8  // FTL-defined tag (PPB stores the hotness level here)
}

// Errors returned by device operations.
var (
	ErrOutOfRange     = errors.New("nand: address out of range")
	ErrProgramOrder   = errors.New("nand: page programmed out of order")
	ErrAlreadyWritten = errors.New("nand: page already programmed (erase-before-write)")
	ErrReadFree       = errors.New("nand: reading a free page")
	ErrBlockRetired   = errors.New("nand: block retired")
)

// blockState is the per-block bookkeeping of the device.
type blockState struct {
	states     []PageState
	oob        []OOB
	nextPage   int // in-order programming cursor
	eraseCount uint32
	validPages int
	invalid    int
}

// DeviceStats aggregates raw device-level activity.
type DeviceStats struct {
	Reads     metrics.Counter
	Programs  metrics.Counter
	Erases    metrics.Counter
	ReadTime  metrics.Latency
	ProgTime  metrics.Latency
	EraseTime metrics.Latency
}

// Device is a simulated 3D charge-trap NAND device. It is not safe for
// concurrent use; simulations drive it from a single goroutine.
//
// # Chip-parallel service time
//
// Besides the per-operation cost (the intrinsic device time every op has
// always returned), the device keeps a service-time model: each chip has
// a "next free" clock, and every operation is scheduled on its chip at
// max(Now, chip free time), occupying the chip for the op's cost. Ops
// issued against different chips between two AdvanceTo calls therefore
// overlap in simulated time, while ops on one chip queue behind each
// other. The harness advances Now as its host queueing model dispatches
// requests (the classic closed loop at queue depth 1 advances to each
// request's completion; deeper queues and open-loop arrivals advance it
// from the completion event queue — see harness.ReplayQueued), and each
// request's completion latency is its burst finish minus its issue time.
// The simulated makespan is the maximum chip free time. Cost
// accounting (DeviceStats, returned costs) is completely
// independent of the scheduling model, and with Chips=1 the makespan
// degenerates to the serial sum of all costs.
//
// # Op-level dependencies
//
// The model stays service-time (single-pass, deterministic) but supports
// explicit dependency chaining: After(t) arms a ready-time floor for the
// next scheduled operation, so a GC relocation's program on chip B can
// be held until its source read on chip A completes, and the victim
// erase until the last relocation lands (the FTL's GC chains every
// relocation this way).
// Without a floor an op starts at max(Now, chip free) exactly as before;
// on a single chip the floor is always dominated by the chip clock, so
// Chips=1 timelines are bit-identical with or without chaining.
//
// # Deferred erases
//
// SetEraseDeferral arms a per-chip deferred-erase queue: an erase issued
// while its chip is busy does not occupy the chip immediately — later
// host operations are scheduled ahead of it — and is committed when the
// chip next goes idle, when its deferral deadline passes, or when an
// operation targets the (already reallocated) block, whichever comes
// first. Block contents, stats and the returned cost are unaffected;
// only the time booking moves. FlushDeferredErases commits everything
// still pending, and Makespan folds still-parked erases in so it never
// understates.
//
// # Intra-chip parallelism
//
// With Config.Planes > 1 each chip splits into plane execution units:
// blocks interleave over planes (chip-local block index modulo Planes)
// and ops on distinct planes of one chip may overlap, bounded by the
// reordering window (SetReorderWindow) — an op may start at most the window before the
// chip's busiest plane drains, so window 0 keeps the chip serial and the
// plane model inert. SetSuspend additionally lets an incoming read
// preempt its plane's in-flight erase (or program) at configurable
// suspend/resume cost, resuming the remainder afterward. Both knobs
// honor the After ready floors and the deferred-erase machinery — a
// committed deferred erase is itself suspendable. See intrachip.go.
//
// The flashvet:boundsafe marker below makes cmd/flashvet verify that
// every exported introspection accessor bounds-checks its block and
// page indices explicitly.
//
//flashvet:boundsafe
type Device struct {
	cfg    Config
	blocks []blockState
	stats  DeviceStats

	// Per-page operation costs, precomputed at construction: the speed
	// ramp is pure arithmetic but runs on every simulated page op, and
	// a table lookup is far cheaper than recomputing the layer scaling
	// per access.
	readCost []time.Duration
	progCost []time.Duration

	// Service-time clocks (see the type comment). now is the host issue
	// time of the next operation; chipFree[c] is when chip c finishes its
	// queued work (with planes > 1, the max over the chip's plane clocks);
	// lastStart/lastFinish bracket the most recent op; nextReady is the
	// one-shot ready-time floor armed by After.
	now        time.Duration
	chipFree   []time.Duration
	lastStart  time.Duration
	lastFinish time.Duration
	nextReady  time.Duration

	// Intra-chip parallelism state (see intrachip.go). planes is the
	// per-chip plane count (1 = serial chip); planeFree[c*planes+p] is
	// plane p of chip c's next-free clock, nil on single-plane devices
	// where chipFree alone carries the schedule; window bounds how far
	// before the chip's busiest plane drains an op on another plane may
	// start (SetReorderWindow).
	planes    int
	window    time.Duration
	planeFree []time.Duration

	// Suspend-resume state (see SetSuspend): the active policy and its
	// costs, the per-plane in-flight op records reads probe for a
	// preemption target (nil while SuspendOff), the monotone suspension
	// counter, its per-block breakdown (nil while SuspendOff; monotone
	// like suspends — ResetClocks leaves both alone), and the
	// event-replay hook told about every suspension.
	suspendPol    SuspendPolicy
	suspendCost   time.Duration
	resumeCost    time.Duration
	inflight      []inflightOp
	suspends      uint64
	suspendCnt    []uint32
	suspendNotify func(chip int, at, resumeAt time.Duration)

	// Deferred-erase state (see SetEraseDeferral): deferWindow > 0
	// enables deferral, deferred[c] is chip c's FIFO of pending erases,
	// deferNotify (when set) is told about every newly parked erase so an
	// event-driven replay can schedule its deadline commit.
	deferWindow time.Duration
	deferred    [][]deferredErase
	deferNotify func(chip int, deadline time.Duration)

	// Reliability model state (nil when disabled — see SetReliability)
	// and the incrementally-maintained highest per-block erase count.
	rel     *relState
	maxWear uint32

	// Burst window (see BeginBurst): the ops scheduled since the last
	// BeginBurst call, their earliest start and latest finish. burstValid
	// distinguishes "no ops scheduled" from a burst legitimately starting
	// at t=0 (the first open-loop request): zero is a real timestamp, not
	// a sentinel. The harness brackets each host request with a burst so
	// it can split the request's completion latency into queueing delay
	// (issue to first op start) and service time without rescanning the
	// chip clocks.
	burstOps   uint64
	burstStart time.Duration
	burstFin   time.Duration
	burstValid bool
}

// NewDevice builds a device from a validated config.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, blocks: make([]blockState, cfg.TotalBlocks())}
	for i := range d.blocks {
		d.blocks[i].states = make([]PageState, cfg.PagesPerBlock)
		d.blocks[i].oob = make([]OOB, cfg.PagesPerBlock)
	}
	d.readCost = make([]time.Duration, cfg.PagesPerBlock)
	d.progCost = make([]time.Duration, cfg.PagesPerBlock)
	for p := range d.readCost {
		d.readCost[p] = cfg.ReadCost(p)
		d.progCost[p] = cfg.ProgramCost(p)
	}
	d.chipFree = make([]time.Duration, cfg.Chips)
	d.planes = cfg.PlaneCount()
	if d.planes > 1 {
		d.planeFree = make([]time.Duration, cfg.Chips*d.planes)
	}
	return d, nil
}

// MustNewDevice is NewDevice that panics on config errors.
//
//flashvet:testonly tests of nand, ftl, core, vblock and harness build devices from literal configs with it
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot pointer of the device activity counters.
func (d *Device) Stats() *DeviceStats { return &d.stats }

// deferredErase is one erase waiting in a chip's deferred queue: its
// block (an operation on the reallocated block forces the commit), its
// time cost, the earliest moment it may start (arm: its issue time plus
// any dependency floor) and the deadline by which it must be committed.
type deferredErase struct {
	block    BlockID
	cost     time.Duration
	arm      time.Duration
	deadline time.Duration
}

// schedule books cost on the chip owning block b: the op starts when the
// host has issued it (now), any armed ready-time floor has passed
// (After), and its plane is free — deferred erases eligible to commit on
// that chip are booked first. With planes > 1 the op may start up to the
// reordering window before the chip's busiest plane drains; a read under
// an active suspend policy may instead preempt its plane's in-flight
// erase (or program — see SetSuspend) and start almost immediately. The
// op occupies its plane until its finish time, which is returned.
//
//flashvet:hotpath
func (d *Device) schedule(b BlockID, cost time.Duration, kind opKind) time.Duration {
	chip := int(b) / d.cfg.BlocksPerChip
	plane := d.planeOf(b)
	issue := d.now
	if d.nextReady > issue {
		issue = d.nextReady
	}
	d.nextReady = 0
	if d.deferred != nil && len(d.deferred[chip]) > 0 {
		d.commitEligible(chip, issue, b)
	}
	start := d.bookStart(chip, plane, issue)
	if kind == opRead && d.suspendPol != SuspendOff {
		if s, ok := d.trySuspend(chip, plane, issue, cost, start); ok {
			start = s
		}
	}
	fin := start + cost
	d.bookFinish(chip, plane, fin)
	d.recordInflight(chip, plane, kind, b, start, fin)
	d.lastStart = start
	d.lastFinish = fin
	if !d.burstValid || start < d.burstStart {
		d.burstStart = start
	}
	if !d.burstValid || fin > d.burstFin {
		d.burstFin = fin
	}
	d.burstValid = true
	d.burstOps++
	return fin
}

// commitEligible books the chip's deferred erases that can no longer
// wait behind an operation issued at issue targeting block b, in FIFO
// order. An erase commits when the chip has an idle gap before the
// incoming op AND the erase was already ready to run (arm <= issue: the
// chip drained its queue while the erase was armed, so the controller
// started it — an erase still waiting on its relocation chain must not
// jump ahead of an op issued before it became ready), when its deadline
// would pass before the op starts, or when the op targets its
// (reallocated) block — programming a block before its erase is booked
// would violate causality. A committed erase starts at max(chip free,
// its arm time).
func (d *Device) commitEligible(chip int, issue time.Duration, b BlockID) {
	q := d.deferred[chip]
	must := -1
	for i := range q {
		if q[i].block == b {
			must = i
		}
	}
	n := 0
	for n < len(q) {
		e := q[n]
		opStart := issue
		if d.chipFree[chip] > opStart {
			opStart = d.chipFree[chip]
		}
		idleCommit := issue > d.chipFree[chip] && e.arm <= issue
		if n > must && !idleCommit && e.deadline > opStart {
			break
		}
		d.bookDeferred(chip, e)
		n++
	}
	if n > 0 {
		d.deferred[chip] = q[:copy(q, q[n:])]
	}
}

// After arms a ready-time floor for the next scheduled operation: it
// starts no earlier than t, in addition to the usual issue-clock and
// chip-free gating. The floor applies to exactly one operation and is
// consumed when it schedules (a deferred erase consumes it at deferral
// time). This is the dependency hook GC relocation chains use: read the
// source page, After(LastFinish()), then program the copy — the program
// cannot start before its data exists. On a single chip the source
// read's finish never exceeds the chip-free clock, so the floor is inert
// and Chips=1 timelines stay bit-identical.
func (d *Device) After(t time.Duration) {
	if t > d.nextReady {
		d.nextReady = t
	}
}

// SetEraseDeferral enables (window > 0) or disables (0) deferred-erase
// scheduling: erases wait in a per-chip queue instead of occupying the
// chip (and the issuing request's burst) right away, and commit at the
// chip's next idle gap, at latest window after issue, or as soon as an
// operation targets the reallocated block. Deferral moves only the time
// booking — contents are erased and stats counted immediately — so
// space accounting never lies.
//
// Disabling (window <= 0) flushes any still-parked erases first: with no
// window there is no deadline event left to commit them, and leaving
// them queued would silently understate the makespan until some later op
// happened to touch their chip.
func (d *Device) SetEraseDeferral(window time.Duration) {
	if window <= 0 && d.deferWindow > 0 {
		d.FlushDeferredErases()
	}
	d.deferWindow = window
	if window > 0 && d.deferred == nil {
		d.deferred = make([][]deferredErase, d.cfg.Chips)
	}
}

// DeferredErases returns how many erases are waiting in the per-chip
// deferred queues (zero when deferral is disabled or all committed).
func (d *Device) DeferredErases() int {
	n := 0
	for _, q := range d.deferred {
		n += len(q)
	}
	return n
}

// SetDeferralNotify registers fn to be called whenever an erase is
// parked in a deferred queue, with the chip it parked on and the
// deadline by which it must commit. An event-driven replay uses the hook
// to schedule a deadline-commit event (see internal/sched) instead of
// flushing blindly at drain; pass nil to unregister. The callback fires
// synchronously inside Erase, so it must not call back into the device.
func (d *Device) SetDeferralNotify(fn func(chip int, deadline time.Duration)) {
	d.deferNotify = fn
}

// CommitDeferredDeadline books the chip's deferred erases whose deadline
// has passed at now, in FIFO order, each starting at max(chip free, its
// arm time) — exactly the booking commitEligible's deadline branch or
// FlushDeferredErases would produce. The event loop calls it when a
// deadline event pops; an erase the op-time scan already committed is
// simply no longer queued, so stale events are harmless no-ops.
func (d *Device) CommitDeferredDeadline(chip int, now time.Duration) {
	if d.deferred == nil || chip < 0 || chip >= len(d.deferred) {
		return
	}
	q := d.deferred[chip]
	n := 0
	for n < len(q) && q[n].deadline <= now {
		d.bookDeferred(chip, q[n])
		n++
	}
	if n > 0 {
		d.deferred[chip] = q[:copy(q, q[n:])]
	}
}

// bookDeferred books one deferred erase on its chip, starting at
// max(plane free, its arm time) — the single booking rule all three
// commit paths (op-time scan, deadline event, drain flush) share. On a
// single-plane device this is exactly max(chip free, arm). The booked
// erase is recorded as in-flight so a read can still suspend it.
//
//flashvet:hotpath
func (d *Device) bookDeferred(chip int, e deferredErase) {
	plane := d.planeOf(e.block)
	start := d.bookStart(chip, plane, e.arm)
	fin := start + e.cost
	d.bookFinish(chip, plane, fin)
	d.recordInflight(chip, plane, opErase, e.block, start, fin)
}

// FlushDeferredErases commits every pending deferred erase at its chip's
// current free time. The replay commits the erases it parks through
// per-deadline events (CommitDeferredDeadline) and needs no drain-time
// flush; it calls this only for erases parked before the replay began,
// which predate its deferral notify hook and so have no deadline events.
func (d *Device) FlushDeferredErases() {
	for chip := range d.deferred {
		for _, e := range d.deferred[chip] {
			d.bookDeferred(chip, e)
		}
		d.deferred[chip] = d.deferred[chip][:0]
	}
}

// Now returns the host issue clock of the service-time model.
func (d *Device) Now() time.Duration { return d.now }

// AdvanceTo moves the host issue clock forward to t (never backward).
// The harness calls it at request completion so the next request issues
// when the previous one finished (closed-loop, queue depth 1).
func (d *Device) AdvanceTo(t time.Duration) {
	if t > d.now {
		d.now = t
	}
}

// LastFinish returns the completion time of the most recently scheduled
// operation. It is not monotonic across chips: an op on an idle chip can
// finish before earlier ops queued on a busy one, so request-completion
// latency must come from Makespan(), not from this probe. GC dependency
// chains read it right after scheduling an op to learn the completion
// the next op must wait for (see After).
func (d *Device) LastFinish() time.Duration { return d.lastFinish }

// LastStart returns the start time of the most recently scheduled
// operation — the moment its chip actually began it, after issue-clock,
// ready-floor and chip-queue gating. Tests use it to verify dependency
// ordering (an op's start never precedes its predecessor's finish).
//
//flashvet:testonly test oracle: nand and ftl causality tests check op start times with it
func (d *Device) LastStart() time.Duration { return d.lastStart }

// Makespan returns the simulated time at which every chip has drained its
// queued work — the end-to-end service time of everything issued so far,
// including erases still parked in the deferred queues (each would book
// FIFO at max(chip free, arm), which is what the fold below computes), so
// callers that never call FlushDeferredErases still see honest makespans.
// With Chips=1 and no deferral this is exactly the serial sum of all
// operation costs.
func (d *Device) Makespan() time.Duration {
	var max time.Duration
	for chip, f := range d.chipFree {
		end := f
		if d.deferred != nil {
			for _, e := range d.deferred[chip] {
				if e.arm > end {
					end = e.arm
				}
				end += e.cost
			}
		}
		if end > max {
			max = end
		}
	}
	return max
}

// ChipFree returns the next-free clock of one chip. Out-of-range chips
// report zero like the other read-only introspection accessors.
func (d *Device) ChipFree(chip int) time.Duration {
	if chip < 0 || chip >= len(d.chipFree) {
		return 0
	}
	return d.chipFree[chip]
}

// BeginBurst starts a new burst window: BurstOps, BurstStart and
// BurstFinish describe only the operations scheduled after this call.
// The harness brackets each host request with a burst so the request's
// completion (latest op finish) and queueing delay (earliest op start
// minus issue) come straight from the device, independent of what other
// outstanding requests schedule on other chips.
func (d *Device) BeginBurst() {
	d.burstOps = 0
	d.burstValid = false
}

// BurstOps returns how many operations the current burst scheduled.
func (d *Device) BurstOps() uint64 { return d.burstOps }

// BurstStart returns the earliest operation start time of the current
// burst, gated on an explicit validity flag rather than the op count so
// a burst that legitimately starts at t=0 (the first open-loop request)
// is not conflated with an empty one. Zero when the burst scheduled
// nothing.
func (d *Device) BurstStart() time.Duration {
	if !d.burstValid {
		return 0
	}
	return d.burstStart
}

// BurstFinish returns the latest operation completion time of the current
// burst (zero when the burst scheduled nothing — see BurstStart for the
// validity flag).
func (d *Device) BurstFinish() time.Duration {
	if !d.burstValid {
		return 0
	}
	return d.burstFin
}

// ResetClocks zeroes the service-time model (issue clock, per-chip free
// clocks, last finish) without touching device contents or cost counters.
// The harness resets after prefill so makespan and latency percentiles
// measure the trace, not the prefill.
func (d *Device) ResetClocks() {
	d.now = 0
	d.lastStart = 0
	d.lastFinish = 0
	d.nextReady = 0
	d.burstOps = 0
	d.burstStart = 0
	d.burstFin = 0
	d.burstValid = false
	for i := range d.chipFree {
		d.chipFree[i] = 0
	}
	for i := range d.planeFree {
		d.planeFree[i] = 0
	}
	for i := range d.inflight {
		d.inflight[i] = inflightOp{}
	}
	// Pending deferred erases belong to the discarded timeline (their
	// contents were erased at issue time); booking them into the fresh
	// window would charge prefill work to the measured trace.
	for i := range d.deferred {
		d.deferred[i] = d.deferred[i][:0]
	}
}

func (d *Device) block(b BlockID) (*blockState, error) {
	if int(b) >= len(d.blocks) {
		return nil, fmt.Errorf("%w: block %d of %d", ErrOutOfRange, b, len(d.blocks))
	}
	return &d.blocks[b], nil
}

func (d *Device) pageCheck(b BlockID, page int) (*blockState, error) {
	blk, err := d.block(b)
	if err != nil {
		return nil, err
	}
	if page < 0 || page >= d.cfg.PagesPerBlock {
		return nil, fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, d.cfg.PagesPerBlock)
	}
	return blk, nil
}

// Read senses the page at ppn and returns its OOB metadata and the time
// the operation takes (sense + transfer). Reading a free page is an error;
// reading an invalid page is permitted (GC never needs it, but the device
// does not forbid it).
//
//flashvet:hotpath
func (d *Device) Read(p PPN) (OOB, time.Duration, error) {
	b, page := d.cfg.SplitPPN(p)
	blk, err := d.pageCheck(b, page)
	if err != nil {
		return OOB{}, 0, err
	}
	if blk.states[page] == PageFree {
		return OOB{}, 0, fmt.Errorf("%w: %v", ErrReadFree, d.cfg.AddressOf(p))
	}
	cost := d.readCost[page]
	if d.rel != nil {
		// The penalty (retry re-senses, ECC decode, recovery) is part of
		// the read's device time: it occupies the chip and is observed in
		// ReadTime, so latency percentiles see retries. With the model
		// off this branch never runs and costs are bit-identical.
		cost += d.reliabilityPenalty(b, blk, p, page)
	}
	d.schedule(b, cost, opRead)
	d.stats.Reads.Inc()
	d.stats.ReadTime.Observe(cost)
	return blk.oob[page], cost, nil
}

// Program writes OOB metadata into the page at ppn and returns the
// operation time (transfer + program pulse). Pages within a block must be
// programmed strictly in order, and a page cannot be programmed twice
// between erases.
//
//flashvet:hotpath
func (d *Device) Program(p PPN, oob OOB) (time.Duration, error) {
	b, page := d.cfg.SplitPPN(p)
	blk, err := d.pageCheck(b, page)
	if err != nil {
		return 0, err
	}
	if blk.states[page] != PageFree {
		return 0, fmt.Errorf("%w: %v", ErrAlreadyWritten, d.cfg.AddressOf(p))
	}
	if page != blk.nextPage {
		return 0, fmt.Errorf("%w: %v (next programmable page is %d)",
			ErrProgramOrder, d.cfg.AddressOf(p), blk.nextPage)
	}
	if d.rel != nil {
		if d.rel.flags[b]&relFlagRetired != 0 {
			return 0, fmt.Errorf("%w: programming block %d", ErrBlockRetired, b)
		}
		d.rel.progTime[p] = d.now
	}
	blk.states[page] = PageValid
	blk.oob[page] = oob
	blk.nextPage++
	blk.validPages++
	cost := d.progCost[page]
	d.schedule(b, cost, opProgram)
	d.stats.Programs.Inc()
	d.stats.ProgTime.Observe(cost)
	return cost, nil
}

// Invalidate marks a previously valid page invalid (out-of-place update or
// trim). It costs no device time: it is pure FTL bookkeeping.
//
//flashvet:hotpath
func (d *Device) Invalidate(p PPN) error {
	b, page := d.cfg.SplitPPN(p)
	blk, err := d.pageCheck(b, page)
	if err != nil {
		return err
	}
	if blk.states[page] != PageValid {
		return fmt.Errorf("nand: invalidating %s page %v", blk.states[page], d.cfg.AddressOf(p))
	}
	blk.states[page] = PageInvalid
	blk.validPages--
	blk.invalid++
	return nil
}

// Erase resets every page of the block to free and returns the erase time.
// Erasing a block that still holds valid pages is legal NAND-wise but
// almost always an FTL bug, so it is reported as an error.
//
//flashvet:hotpath
func (d *Device) Erase(b BlockID) (time.Duration, error) {
	blk, err := d.block(b)
	if err != nil {
		return 0, err
	}
	if blk.validPages != 0 {
		return 0, fmt.Errorf("nand: erasing block %d with %d valid pages", b, blk.validPages)
	}
	if d.blockRetired(b) {
		return 0, fmt.Errorf("%w: erasing block %d", ErrBlockRetired, b)
	}
	return d.eraseBlock(b, blk), nil
}

func (d *Device) eraseBlock(b BlockID, blk *blockState) time.Duration {
	for i := range blk.states {
		blk.states[i] = PageFree
		blk.oob[i] = OOB{}
	}
	blk.nextPage = 0
	blk.validPages = 0
	blk.invalid = 0
	blk.eraseCount++
	if blk.eraseCount > d.maxWear {
		d.maxWear = blk.eraseCount
	}
	if d.rel != nil && d.rel.cfg.PECycleLimit > 0 && blk.eraseCount >= d.rel.cfg.PECycleLimit {
		d.rel.flagRetire(b)
	}
	chip := int(b) / d.cfg.BlocksPerChip
	if d.deferWindow > 0 {
		// Park the erase in the chip's deferred queue instead of booking
		// it (and the current burst) right away: later host operations
		// are scheduled ahead of it until the chip next idles, the
		// deadline passes, or the reallocated block is touched. The
		// armed ready floor (the relocation chain's last finish) is
		// folded into the arm time and consumed here, so a committed
		// erase still never starts before its relocations landed.
		arm := d.now
		if d.nextReady > arm {
			arm = d.nextReady
		}
		d.nextReady = 0
		d.deferred[chip] = append(d.deferred[chip], deferredErase{
			block: b, cost: d.cfg.EraseLatency, arm: arm, deadline: arm + d.deferWindow,
		})
		if d.deferNotify != nil {
			d.deferNotify(chip, arm+d.deferWindow)
		}
	} else {
		d.schedule(b, d.cfg.EraseLatency, opErase)
	}
	d.stats.Erases.Inc()
	d.stats.EraseTime.Observe(d.cfg.EraseLatency)
	return d.cfg.EraseLatency
}

// blockAt returns the block's state, or nil when b is out of range. The
// read-only introspection accessors below use it so they all degrade the
// same way State always has — zero values for addresses the device does
// not have — instead of panicking on a slice index while the mutating
// operations return ErrOutOfRange.
func (d *Device) blockAt(b BlockID) *blockState {
	if int(b) >= len(d.blocks) {
		return nil
	}
	return &d.blocks[b]
}

// State returns the state of the page at ppn (PageFree when ppn is out of
// range).
func (d *Device) State(p PPN) PageState {
	b, page := d.cfg.SplitPPN(p)
	blk := d.blockAt(b)
	if blk == nil || page >= d.cfg.PagesPerBlock {
		return PageFree
	}
	return blk.states[page]
}

// PeekOOB returns the stored OOB without paying read cost (simulator
// introspection; FTLs use it only during GC scans, which real controllers
// amortize by reading OOB-only). Out-of-range PPNs yield a zero OOB.
func (d *Device) PeekOOB(p PPN) OOB {
	b, page := d.cfg.SplitPPN(p)
	blk := d.blockAt(b)
	if blk == nil || page >= d.cfg.PagesPerBlock {
		return OOB{}
	}
	return blk.oob[page]
}

// ValidPages returns how many pages of the block are valid (zero when b
// is out of range).
//
//flashvet:testonly test oracle: nand and ftl tests check per-block page accounting with it
func (d *Device) ValidPages(b BlockID) int {
	blk := d.blockAt(b)
	if blk == nil {
		return 0
	}
	return blk.validPages
}

// InvalidPages returns how many pages of the block are invalid (zero when
// b is out of range).
//
//flashvet:testonly test oracle: ftl's full-scan victim oracle scores blocks with it
func (d *Device) InvalidPages(b BlockID) int {
	blk := d.blockAt(b)
	if blk == nil {
		return 0
	}
	return blk.invalid
}

// EraseCount returns the block's program/erase cycle count (zero when b
// is out of range).
func (d *Device) EraseCount(b BlockID) uint32 {
	blk := d.blockAt(b)
	if blk == nil {
		return 0
	}
	return blk.eraseCount
}

// TotalErases returns the device-wide erase count.
func (d *Device) TotalErases() uint64 { return d.stats.Erases.Value() }

// MaxEraseCount returns the highest per-block erase count (wear skew
// probe). Erase counts only grow, so the device maintains it
// incrementally and this is O(1) — cheap enough for per-GC-run wear
// leveling decisions (see ftl.WearThresholdSwap).
func (d *Device) MaxEraseCount() uint32 { return d.maxWear }

// CheckAccounting verifies the device accounting invariant: per-block
// page-state counters agree with the page arrays. It returns the first
// inconsistency found.
//
//flashvet:testonly test oracle: nand, ftl and core property tests call it after every operation
func (d *Device) CheckAccounting() error {
	for bi := range d.blocks {
		blk := &d.blocks[bi]
		var valid, invalid, free int
		for p, s := range blk.states {
			switch s {
			case PageValid:
				valid++
			case PageInvalid:
				invalid++
			default:
				free = free + 1
				if p < blk.nextPage {
					return fmt.Errorf("nand: block %d page %d free below cursor %d", bi, p, blk.nextPage)
				}
			}
			if s != PageFree && p >= blk.nextPage {
				return fmt.Errorf("nand: block %d page %d %s above cursor %d", bi, p, s, blk.nextPage)
			}
		}
		if valid != blk.validPages || invalid != blk.invalid {
			return fmt.Errorf("nand: block %d counted v=%d i=%d, cached v=%d i=%d",
				bi, valid, invalid, blk.validPages, blk.invalid)
		}
		if valid+invalid+free != d.cfg.PagesPerBlock {
			return fmt.Errorf("nand: block %d pages do not sum: %d+%d+%d != %d",
				bi, valid, invalid, free, d.cfg.PagesPerBlock)
		}
	}
	return nil
}
