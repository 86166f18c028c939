// Package sched provides the discrete-event core of the simulator: one
// time-ordered event heap that carries every future occurrence a replay
// must react to — host arrivals, queue-slot issues, per-chip operation
// completions, and deferred-erase commits — as first-class events.
//
// Before this package existed the replay loop interleaved three ad-hoc
// mechanisms: a private completion min-heap in the harness, arrival
// handling spliced into the loop body, and a drain-time flush of the
// erases still parked in the device's deferred queues. The single heap
// replaces the first two and the flush with one total order: events pop
// in non-decreasing Time, and events at equal Time pop in push (FIFO)
// order, so a replay is a deterministic fold over the event sequence at
// any host parallelism.
//
// The device keeps its own op-time commit scan: an operation arriving
// on a chip still books the parked erases it must not overtake. The
// deadline events add what that scan cannot see: an erase whose
// deadline passes while no operation reaches its chip is booked at
// once, so the chip clocks that clock-aware dispatch reads include it.
//
// The heap is a plain slice of small value records — no interface
// boxing, no per-event allocation. Once the backing array has grown to
// the replay's peak outstanding-event count, Push and Pop run
// allocation-free, which keeps the simulation's event loop at
// 0 allocs/op in steady state (see BenchmarkEventLoop).
package sched

import "time"

// Kind labels what an event represents. The scheduler itself does not
// interpret kinds — it only orders events — but carrying the kind in the
// record lets one heap multiplex every event source of a replay.
type Kind uint8

// Event kinds, in the life cycle order of one request.
const (
	// KindArrival marks a host request arriving (open-loop replay issues
	// requests at their trace arrival times).
	KindArrival Kind = iota
	// KindIssue marks a queue slot dispatching a request to the device.
	KindIssue
	// KindCompletion marks an outstanding request's last device
	// operation finishing, freeing its queue slot.
	KindCompletion
	// KindEraseCommit marks a deferred erase's deadline: the moment the
	// device must book the erase if no earlier idle gap or block reuse
	// already committed it.
	KindEraseCommit
	// KindEraseSuspend marks a read preempting an in-flight erase or
	// program (see nand.Device.SetSuspend). The device books the
	// preemption synchronously; the event records it in the replay's
	// total order for accounting and tracing.
	KindEraseSuspend
	// KindEraseResume marks the moment a suspended operation's remainder
	// restarts after the preempting read and the resume cost.
	KindEraseResume
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindArrival:
		return "arrival"
	case KindIssue:
		return "issue"
	case KindCompletion:
		return "completion"
	case KindEraseCommit:
		return "erase-commit"
	case KindEraseSuspend:
		return "erase-suspend"
	case KindEraseResume:
		return "erase-resume"
	default:
		return "Kind(?)"
	}
}

// Event is one scheduled occurrence. Events are small value records so a
// heap of them stays pointer-free; Chip carries the target chip for
// erase commits and is free for other kinds to repurpose (the heap never
// reads it).
type Event struct {
	// Time is when the event occurs on the simulated clock.
	Time time.Duration
	// seq is the FIFO tie-break among events at equal Time, assigned by
	// Queue.Push in arrival order.
	seq uint64
	// Kind labels the event for the popping loop's dispatch.
	Kind Kind
	// Chip is the chip an erase-commit event targets.
	Chip int32
}

// Queue is the time-ordered event heap: Pop returns events in
// non-decreasing Time, breaking ties by push order (FIFO), so equal-time
// events replay in exactly the order they were scheduled. The zero value
// is ready to use. Not safe for concurrent use — one replay owns one
// queue, like it owns its device.
type Queue struct {
	heap []Event
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// before orders the heap: by Time, then by push sequence. The sequence
// counter never repeats, so the order is total and deterministic.
func before(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// Push schedules an event. The event's FIFO sequence is assigned here;
// any value the caller left in the unexported field is overwritten.
//
//flashvet:hotpath
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	h := append(q.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	q.heap = h
}

// Min returns the earliest pending event without removing it (q must be
// non-empty).
//
//flashvet:hotpath
func (q *Queue) Min() Event { return q.heap[0] }

// Pop removes and returns the earliest pending event (q must be
// non-empty). Among equal times, events pop in push order.
//
//flashvet:hotpath
func (q *Queue) Pop() Event {
	h := q.heap
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && before(h[l], h[s]) {
			s = l
		}
		if r < n && before(h[r], h[s]) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	q.heap = h
	return min
}

// Reset discards all pending events but keeps the backing array, so a
// reused queue stays allocation-free. The FIFO sequence counter is NOT
// reset: sequences only ever grow, which keeps the tie-break total even
// across reuse.
func (q *Queue) Reset() { q.heap = q.heap[:0] }
