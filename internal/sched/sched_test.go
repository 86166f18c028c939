package sched

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestQueueOrdersByTime pins the basic heap contract: events pop in
// non-decreasing Time regardless of push order.
func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	times := []time.Duration{50, 10, 40, 10, 30, 0, 20, 50, 10}
	for _, d := range times {
		q.Push(Event{Time: d, Kind: KindCompletion})
	}
	if q.Len() != len(times) {
		t.Fatalf("Len() = %d, want %d", q.Len(), len(times))
	}
	if e := q.Pop(); e.Time != 0 {
		t.Fatalf("first pop at %v, want the earliest time 0", e.Time)
	}
	prev := time.Duration(0)
	for q.Len() > 0 {
		e := q.Pop()
		if e.Time < prev {
			t.Fatalf("popped %v after %v: times not non-decreasing", e.Time, prev)
		}
		prev = e.Time
	}
}

// TestQueueFIFOAmongEqualTimes pins the tie-break: events pushed at the
// same timestamp pop in exactly their push order. The replay relies on
// this for determinism — equal-time completions must free queue slots
// in a fixed order at any host parallelism. A fresh queue numbers its
// pushes from 0, so an event's seq is its push index.
func TestQueueFIFOAmongEqualTimes(t *testing.T) {
	var q Queue
	const n = 100
	for i := 0; i < n; i++ {
		q.Push(Event{Time: 7, Kind: KindIssue})
	}
	for i := 0; i < n; i++ {
		e := q.Pop()
		if e.seq != uint64(i) {
			t.Fatalf("equal-time event %d popped out of push order (got push index %d)", i, e.seq)
		}
	}
}

// TestQueueInterleavedPushPop pins FIFO across interleaving: events
// pushed at an equal time after some pops still sort behind earlier
// pushes at that time.
func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5})
	q.Push(Event{Time: 5})
	if e := q.Pop(); e.seq != 0 {
		t.Fatalf("first pop = push index %d, want 0", e.seq)
	}
	q.Push(Event{Time: 5})
	q.Push(Event{Time: 3})
	want := []uint64{3, 1, 2}
	for i, w := range want {
		if e := q.Pop(); e.seq != w {
			t.Fatalf("pop %d = push index %d, want %d", i, e.seq, w)
		}
	}
}

// TestQueueMatchesStableSort is the property test: against randomized
// push sequences, the pop order must equal a stable sort of the pushed
// events by Time — exactly the "non-decreasing Time, FIFO among equal"
// contract, checked on a reference implementation.
func TestQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		spread := 1 + rng.Intn(20) // small spread forces many ties
		events := make([]Event, n)
		var q Queue
		for i := range events {
			e := Event{
				Time: time.Duration(rng.Intn(spread)),
				seq:  uint64(i), // the push index Push assigns on a fresh queue
				Kind: Kind(rng.Intn(3)),
			}
			events[i] = e
			q.Push(e)
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
		for i, want := range events {
			if got := q.Pop(); got != want {
				t.Fatalf("trial %d pop %d = {t=%v push=%d kind=%v}, want {t=%v push=%d kind=%v}",
					trial, i, got.Time, got.seq, got.Kind, want.Time, want.seq, want.Kind)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d events left after popping all", trial, q.Len())
		}
	}
}

// FuzzEventHeap feeds arbitrary byte strings to the heap as push
// sequences and checks the two invariants every replay depends on:
// pop times never decrease, and among equal times the push order is
// preserved (the push sequence, seq, is the witness: a fresh queue
// numbers its pushes from 0).
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 1, 5, 1, 5})
	f.Add([]byte{255, 0, 128, 0, 255, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Queue
		for _, b := range data {
			q.Push(Event{Time: time.Duration(b), Kind: Kind(b % 3)})
		}
		if q.Len() != len(data) {
			t.Fatalf("Len() = %d after %d pushes", q.Len(), len(data))
		}
		prevTime := time.Duration(-1)
		var prevSeq uint64 // push index of the previous pop at prevTime
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < prevTime {
				t.Fatalf("time went backwards: %v after %v", e.Time, prevTime)
			}
			if e.Time == prevTime && e.seq <= prevSeq {
				t.Fatalf("FIFO violated at t=%v: push index %d popped after %d", e.Time, e.seq, prevSeq)
			}
			if e.seq >= uint64(len(data)) {
				t.Fatalf("push index %d out of range after %d pushes", e.seq, len(data))
			}
			b := data[e.seq]
			if time.Duration(b) != e.Time || e.Kind != Kind(b%3) {
				t.Fatalf("event corrupted: push index %d had time %d kind %v, popped with %v %v",
					e.seq, b, Kind(b%3), e.Time, e.Kind)
			}
			prevTime, prevSeq = e.Time, e.seq
		}
	})
}
