// Package sched provides the discrete-event core of the simulator: one
// time-ordered event heap that carries every future occurrence a replay
// must react to — host arrivals, queue-slot issues and per-request
// completions — as first-class events.
//
// Events pop in non-decreasing Time, and events at equal Time pop in push
// (FIFO) order: one total order, so a replay is a deterministic fold over
// the event sequence at any host parallelism.
//
// Instants inside the device are not events. The device books them
// itself: nand.Device.AdvanceTo commits the parked erases whose
// deadline has passed, and a read books its suspension of an in-flight
// erase. Nothing in nand calls back into the replay.
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
	default:
		return "Kind(?)"
	}
}

// Event is one scheduled occurrence. Events are small value records so a
// heap of them stays pointer-free.
type Event struct {
	// Time is when the event occurs on the simulated clock.
	Time time.Duration
	// seq is the FIFO tie-break among events at equal Time, assigned by
	// Queue.Push in arrival order.
	seq uint64
	// Kind labels the event for the popping loop's dispatch.
	Kind Kind
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
