package hotness

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
)

// refLRU is the reference capacity-bounded LRU the slab lists must
// reproduce: container/list for the order plus a map index, one list per
// index.
type refLRU struct {
	cap   int
	order *list.List // front is most recently used; values are lruEntry
	index map[uint64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &refLRU{cap: capacity, order: list.New(), index: map[uint64]*list.Element{}}
}

func (l *refLRU) contains(lpn uint64) bool {
	_, ok := l.index[lpn]
	return ok
}

func (l *refLRU) value(lpn uint64) (uint64, bool) {
	if e, ok := l.index[lpn]; ok {
		return e.Value.(lruEntry).val, true
	}
	return 0, false
}

// touch moves lpn to the front, optionally updating its value, and
// reports whether it was present.
func (l *refLRU) touch(lpn, val uint64, setVal bool) bool {
	e, ok := l.index[lpn]
	if !ok {
		return false
	}
	l.order.MoveToFront(e)
	if setVal {
		e.Value = lruEntry{lpn: lpn, val: val}
	}
	return true
}

// insertFront adds or refreshes lpn at the front and returns the entry
// evicted from the back when the list overflows.
func (l *refLRU) insertFront(lpn, val uint64) (lruEntry, bool) {
	if l.touch(lpn, val, true) {
		return lruEntry{}, false
	}
	l.index[lpn] = l.order.PushFront(lruEntry{lpn: lpn, val: val})
	if l.order.Len() <= l.cap {
		return lruEntry{}, false
	}
	ev := l.order.Remove(l.order.Back()).(lruEntry)
	delete(l.index, ev.lpn)
	return ev, true
}

func (l *refLRU) remove(lpn uint64) bool {
	e, ok := l.index[lpn]
	if !ok {
		return false
	}
	l.order.Remove(e)
	delete(l.index, lpn)
	return true
}

// refTwoLevel is the reference two-level tracker: two independent
// refLRU lists, each operation spelled as lookups, removals and
// insertions on them.
type refTwoLevel struct{ hot, iron *refLRU }

func (t *refTwoLevel) Level(lpn uint64) (Level, bool) {
	if t.iron.contains(lpn) {
		return IronHot, true
	}
	if t.hot.contains(lpn) {
		return Hot, true
	}
	return 0, false
}

func (t *refTwoLevel) OnWrite(lpn, seq uint64) (Level, Demotion, bool) {
	if t.iron.touch(lpn, seq, true) {
		return IronHot, Demotion{}, false
	}
	if t.hot.touch(lpn, seq, true) {
		return Hot, Demotion{}, false
	}
	if ev, overflow := t.hot.insertFront(lpn, seq); overflow {
		return Hot, Demotion{LPN: ev.lpn, LastWrite: ev.val}, true
	}
	return Hot, Demotion{}, false
}

func (t *refTwoLevel) OnRead(lpn uint64) (Level, Demotion, bool, bool) {
	if t.iron.touch(lpn, 0, false) {
		return IronHot, Demotion{}, false, true
	}
	seq, tracked := t.hot.value(lpn)
	if !tracked {
		return 0, Demotion{}, false, false
	}
	t.hot.remove(lpn)
	if ev, overflow := t.iron.insertFront(lpn, seq); overflow {
		if ev2, overflow2 := t.hot.insertFront(ev.lpn, ev.val); overflow2 {
			return IronHot, Demotion{LPN: ev2.lpn, LastWrite: ev2.val}, true, true
		}
	}
	return IronHot, Demotion{}, false, true
}

func (t *refTwoLevel) Demote(lpn uint64) (Demotion, bool) {
	if seq, ok := t.iron.value(lpn); ok {
		t.iron.remove(lpn)
		if ev, overflow := t.hot.insertFront(lpn, seq); overflow {
			return Demotion{LPN: ev.lpn, LastWrite: ev.val}, true
		}
		return Demotion{}, false
	}
	if seq, ok := t.hot.value(lpn); ok {
		t.hot.remove(lpn)
		return Demotion{LPN: lpn, LastWrite: seq}, true
	}
	return Demotion{}, false
}

func (t *refTwoLevel) Remove(lpn uint64) {
	if !t.iron.remove(lpn) {
		t.hot.remove(lpn)
	}
}

func (t *refTwoLevel) LastWrite(lpn uint64) (uint64, bool) {
	if v, ok := t.iron.value(lpn); ok {
		return v, true
	}
	return t.hot.value(lpn)
}

// refClassify is the reference Recency.Classify over a refLRU window.
func refClassify(window *refLRU, lpn uint64) Area {
	seen := window.contains(lpn)
	window.insertFront(lpn, 0)
	if seen {
		return AreaHot
	}
	return AreaCold
}

// pickLPN draws an LPN that hits both ends of [0, span) often and, now
// and then, lands just past the span.
func pickLPN(rng *rand.Rand, span uint64) uint64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return span - 1
	case 2:
		return span + uint64(rng.Intn(3))
	default:
		return uint64(rng.Int63n(int64(span)))
	}
}

// opResult is every value one tracker operation returns, plus the list
// lengths afterwards.
type opResult struct {
	lvl             Level
	dem             Demotion
	seq             uint64
	demoted, ok     bool
	hotLen, ironLen int
}

// TestTwoLevelMatchesReference drives TwoLevelLRU and the map-indexed
// reference through the same random operation sequences and compares
// every return value and both list lengths at each step, so eviction,
// promotion and demotion order are all pinned.
func TestTwoLevelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := uint64(1 + rng.Intn(40))
		hotCap, ironCap := 1+rng.Intn(8), 1+rng.Intn(8)
		got := NewTwoLevelLRU(hotCap, ironCap, span)
		want := &refTwoLevel{hot: newRefLRU(hotCap), iron: newRefLRU(ironCap)}
		for step := 0; step < 2000; step++ {
			lpn, seq := pickLPN(rng, span), uint64(step)
			var g, w opResult
			op := rng.Intn(6)
			switch op {
			case 0:
				g.lvl, g.dem, g.demoted = got.OnWrite(lpn, seq)
				w.lvl, w.dem, w.demoted = want.OnWrite(lpn, seq)
			case 1:
				g.lvl, g.dem, g.demoted, g.ok = got.OnRead(lpn)
				w.lvl, w.dem, w.demoted, w.ok = want.OnRead(lpn)
			case 2:
				g.dem, g.demoted = got.Demote(lpn)
				w.dem, w.demoted = want.Demote(lpn)
			case 3:
				got.Remove(lpn)
				want.Remove(lpn)
			case 4:
				g.lvl, g.ok = got.Level(lpn)
				w.lvl, w.ok = want.Level(lpn)
			case 5:
				g.seq, g.ok = got.LastWrite(lpn)
				w.seq, w.ok = want.LastWrite(lpn)
			}
			g.hotLen, g.ironLen = got.HotLen(), got.IronLen()
			w.hotLen, w.ironLen = want.hot.order.Len(), want.iron.order.Len()
			if g != w {
				t.Fatalf("seed %d step %d op %d lpn %d (span %d, caps %d/%d): got %+v, want %+v",
					seed, step, op, lpn, span, hotCap, ironCap, g, w)
			}
		}
	}
}

// TestRecencyMatchesReference does the same for the Recency identifier,
// whose index starts empty and grows with the LPNs it sees.
func TestRecencyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := uint64(1 + rng.Intn(40))
		window := 1 + rng.Intn(8)
		got, want := NewRecency(window), newRefLRU(window)
		for step := 0; step < 2000; step++ {
			lpn := pickLPN(rng, span)
			if g, w := got.Classify(lpn, 0), refClassify(want, lpn); g != w {
				t.Fatalf("seed %d step %d lpn %d (window %d): got %v, want %v",
					seed, step, lpn, window, g, w)
			}
			if got.window.size != want.order.Len() {
				t.Fatalf("seed %d step %d: window holds %d, want %d",
					seed, step, got.window.size, want.order.Len())
			}
		}
	}
}

// TestTwoLevelBeyondSpan pins that an LPN past the index span reads as
// untracked on every operation, and that writing one grows the index
// rather than panicking.
func TestTwoLevelBeyondSpan(t *testing.T) {
	const span = 8
	tr := NewTwoLevelLRU(2, 2, span)
	tr.OnWrite(span-1, 1)
	for _, lpn := range []uint64{span, span + 1000, math.MaxUint64} {
		if lvl, ok := tr.Level(lpn); ok {
			t.Errorf("Level(%d) = %v, want untracked", lpn, lvl)
		}
		if seq, ok := tr.LastWrite(lpn); ok {
			t.Errorf("LastWrite(%d) = %d, want untracked", lpn, seq)
		}
		if _, _, _, ok := tr.OnRead(lpn); ok {
			t.Errorf("OnRead(%d) reported hot-area data", lpn)
		}
		if dem, demoted := tr.Demote(lpn); demoted {
			t.Errorf("Demote(%d) = %+v", lpn, dem)
		}
		tr.Remove(lpn)
	}
	if tr.HotLen() != 1 || tr.IronLen() != 0 {
		t.Fatalf("lens = %d/%d, want 1/0", tr.HotLen(), tr.IronLen())
	}
	if lvl, _, demoted := tr.OnWrite(span+3, 2); lvl != Hot || demoted {
		t.Fatalf("write past the span = %v (demoted %v)", lvl, demoted)
	}
	if lvl, ok := tr.Level(span + 3); !ok || lvl != Hot {
		t.Fatalf("Level after write past the span = %v %v", lvl, ok)
	}
	if err := checkLists(tr); err != nil {
		t.Fatal(err)
	}
}
