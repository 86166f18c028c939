package nand

import (
	"fmt"
	"time"
)

// This file holds the intra-chip parallelism machinery: per-plane clocks
// with a bounded reordering window, and program/erase suspend-resume.
// Both extend the service-time model in device.go and are inert (bit-
// identical timelines) when left at their zero values — planes <= 1 and
// SuspendOff — which is how every pre-a8 configuration runs.

// opKind labels a scheduled operation for the suspend policy: only
// erases (and, under SuspendFull, programs) may be preempted by a read.
type opKind uint8

const (
	opRead opKind = iota
	opProgram
	opErase
)

// SuspendPolicy selects which in-flight operations an incoming read may
// preempt (see Device.SetSuspend).
type SuspendPolicy uint8

const (
	// SuspendOff disables preemption: reads queue behind in-flight
	// erases and programs exactly as before.
	SuspendOff SuspendPolicy = iota
	// SuspendErase lets a read suspend an in-flight erase, paying the
	// suspend cost up front and the resume cost before the erase
	// remainder restarts.
	SuspendErase
	// SuspendFull lets a read suspend an in-flight erase or program.
	SuspendFull
)

// String returns the policy name ("off", "erase", "full").
func (p SuspendPolicy) String() string {
	switch p {
	case SuspendOff:
		return "off"
	case SuspendErase:
		return "erase"
	case SuspendFull:
		return "full"
	default:
		return fmt.Sprintf("SuspendPolicy(%d)", uint8(p))
	}
}

// SuspendByName resolves a policy name — the spelling flashsim -suspend
// accepts. The empty string means SuspendOff, mirroring the other
// *ByName resolvers.
func SuspendByName(name string) (SuspendPolicy, error) {
	switch name {
	case "", "off":
		return SuspendOff, nil
	case "erase":
		return SuspendErase, nil
	case "full":
		return SuspendFull, nil
	default:
		return SuspendOff, fmt.Errorf("nand: unknown suspend policy %q (want off, erase or full)", name)
	}
}

// inflightOp tracks the most recent suspendable operation booked on one
// plane: its kind, the block it targets (so a suspension can be charged
// to that block's per-block count) and the [start, fin) interval it
// currently occupies. fin == 0 means no record. A record goes stale the
// moment anything is booked behind it (the plane clock moves past fin),
// which trySuspend detects without explicit invalidation.
type inflightOp struct {
	kind  opKind
	block BlockID
	start time.Duration
	fin   time.Duration
}

// SuspendRetireThreshold is the per-block suspension count at which an
// erase-suspended block is flagged as a retire candidate when the
// reliability model is active: a block whose erases keep getting
// preempted is both heavily erased and sitting under a hot read region,
// the combination the ROADMAP's a8↔a9 follow-up wants taken out of
// service early. Flagging goes through the same retire queue the
// error-rate path uses (Device.RetireRecommended / GC retirement), so
// with the reliability model off the count is purely diagnostic.
const SuspendRetireThreshold = 8

// SetReorderWindow bounds how far before its chip's busiest plane drains
// an operation on another plane may start (multi-plane overlap). Zero
// serializes the chip even with Planes > 1, so the plane ladder is:
// planes=1 ≡ planes=N with window 0 ≺ window > 0. The window has no
// effect on single-plane chips.
func (d *Device) SetReorderWindow(w time.Duration) { d.window = w }

// SetSuspend configures program/erase suspend-resume: under a policy
// other than SuspendOff, an incoming read may preempt the in-flight
// operation on its plane, paying suspendCost before the read senses and
// resumeCost before the preempted remainder restarts. The preempted
// requester's recorded latency keeps its pre-suspension finish — the
// controller acknowledges the erase at issue; only chip occupancy
// stretches — which is the modeling choice that keeps suspension a pure
// read-tail optimization.
func (d *Device) SetSuspend(policy SuspendPolicy, suspendCost, resumeCost time.Duration) {
	d.suspendPol = policy
	d.suspendCost = suspendCost
	d.resumeCost = resumeCost
	if policy != SuspendOff && d.inflight == nil {
		d.inflight = make([]inflightOp, d.cfg.Chips*d.planes)
	}
	if policy != SuspendOff && d.suspendCnt == nil {
		d.suspendCnt = make([]uint32, len(d.blocks))
	}
}

// Suspends returns how many times a read has suspended an in-flight
// operation. Monotone like the device stats; the harness diffs it
// around the measured window.
func (d *Device) Suspends() uint64 { return d.suspends }

// SetSuspendNotify registers fn to be called whenever a read suspends an
// in-flight operation, with the chip, the suspension time and the time
// the preempted remainder resumes. An event-driven replay uses the hook
// to record suspend/resume occurrences as first-class events (see
// internal/sched); pass nil to unregister. The callback fires
// synchronously inside Read, so it must not call back into the device.
func (d *Device) SetSuspendNotify(fn func(chip int, at, resumeAt time.Duration)) {
	d.suspendNotify = fn
}

// planeOf returns the plane of a block on its chip (always 0 when the
// device is single-plane).
//
//flashvet:hotpath
func (d *Device) planeOf(b BlockID) int {
	if d.planes == 1 {
		return 0
	}
	return (int(b) % d.cfg.BlocksPerChip) % d.planes
}

// suspendable reports whether the active policy lets a read preempt an
// in-flight operation of the given kind.
//
//flashvet:hotpath
func (d *Device) suspendable(k opKind) bool {
	switch d.suspendPol {
	case SuspendErase:
		return k == opErase
	case SuspendFull:
		return k == opErase || k == opProgram
	default:
		return false
	}
}

// bookStart returns the earliest start for an op on (chip, plane) that
// must not begin before earliest: the plane must be free, and the op may
// run ahead of the chip's busiest plane by at most the reordering
// window. Single-plane devices gate on the chip clock alone, exactly the
// pre-plane booking.
//
//flashvet:hotpath
func (d *Device) bookStart(chip, plane int, earliest time.Duration) time.Duration {
	start := earliest
	if d.planes > 1 {
		if f := d.planeFree[chip*d.planes+plane]; f > start {
			start = f
		}
		if ahead := d.chipFree[chip] - d.window; ahead > start {
			start = ahead
		}
		return start
	}
	if f := d.chipFree[chip]; f > start {
		start = f
	}
	return start
}

// bookFinish occupies (chip, plane) until fin. Clocks only move forward
// (max-assignment): a read booked into a suspension gap must not pull
// the plane clock below the resumed remainder's finish.
//
//flashvet:hotpath
func (d *Device) bookFinish(chip, plane int, fin time.Duration) {
	if d.planes > 1 {
		if idx := chip*d.planes + plane; fin > d.planeFree[idx] {
			d.planeFree[idx] = fin
		}
	}
	if fin > d.chipFree[chip] {
		d.chipFree[chip] = fin
	}
}

// trySuspend checks whether a read issued at issue on (chip, plane) may
// preempt that plane's in-flight operation instead of queueing behind it
// at normalStart, and books the preemption if so. It returns the read's
// preempted start time and true, or 0 and false when the policy, the
// record or the economics say no. Preconditions: a suspendable op is
// executing right now (its interval covers issue — an op merely queued
// has not started and needs no suspension), nothing is already booked
// behind it on the plane, and preempting actually starts the read
// earlier than waiting would.
//
//flashvet:hotpath
func (d *Device) trySuspend(chip, plane int, issue, cost, normalStart time.Duration) (time.Duration, bool) {
	idx := chip*d.planes + plane
	rec := &d.inflight[idx]
	if rec.fin == 0 || !d.suspendable(rec.kind) {
		return 0, false
	}
	if issue < rec.start || issue >= rec.fin {
		return 0, false
	}
	clk := d.chipFree[chip]
	if d.planes > 1 {
		clk = d.planeFree[idx]
	}
	if clk != rec.fin {
		return 0, false // something already queued behind the op
	}
	readStart := issue + d.suspendCost
	if readStart >= normalStart {
		return 0, false // waiting is no worse than suspending
	}
	remaining := rec.fin - issue
	resumeAt := readStart + cost + d.resumeCost
	newFin := resumeAt + remaining
	rec.start, rec.fin = resumeAt, newFin
	d.bookFinish(chip, plane, newFin)
	d.suspends++
	if int(rec.block) < len(d.suspendCnt) {
		d.suspendCnt[rec.block]++
		// An erase that keeps getting preempted marks its block as a
		// retire candidate once the reliability model is there to retire
		// it; without the model the count has no effect.
		if d.rel != nil && rec.kind == opErase && d.suspendCnt[rec.block] >= SuspendRetireThreshold {
			d.rel.flagRetire(rec.block)
		}
	}
	if d.suspendNotify != nil {
		d.suspendNotify(chip, issue, resumeAt)
	}
	return readStart, true
}

// recordInflight remembers a just-booked suspendable op so a later read
// can find it. Reads never record: they cannot be suspended under any
// policy, and a stale record behind a read is rejected by trySuspend's
// plane-clock check.
//
//flashvet:hotpath
func (d *Device) recordInflight(chip, plane int, kind opKind, b BlockID, start, fin time.Duration) {
	if d.inflight == nil || !d.suspendable(kind) {
		return
	}
	d.inflight[chip*d.planes+plane] = inflightOp{kind: kind, block: b, start: start, fin: fin}
}
