package hotness

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevelProperties(t *testing.T) {
	tests := []struct {
		lvl     Level
		name    string
		hotArea bool
		fast    bool
	}{
		{IcyCold, "icy-cold", false, false},
		{Cold, "cold", false, true},
		{Hot, "hot", true, false},
		{IronHot, "iron-hot", true, true},
	}
	for _, tt := range tests {
		if tt.lvl.String() != tt.name {
			t.Errorf("String() = %q, want %q", tt.lvl.String(), tt.name)
		}
		if tt.lvl.HotArea() != tt.hotArea {
			t.Errorf("%v HotArea() = %v", tt.lvl, tt.lvl.HotArea())
		}
		if tt.lvl.Fast() != tt.fast {
			t.Errorf("%v Fast() = %v", tt.lvl, tt.lvl.Fast())
		}
		if !tt.lvl.Valid() {
			t.Errorf("%v should be valid", tt.lvl)
		}
	}
	if Level(7).Valid() {
		t.Error("Level(7) should be invalid")
	}
	if Level(7).String() != "Level(7)" {
		t.Errorf("bad fallback string %q", Level(7).String())
	}
}

func TestAreaEntryLevels(t *testing.T) {
	if AreaHot.EntryLevel() != Hot {
		t.Error("hot-area data must enter at Hot (slow pages first)")
	}
	if AreaCold.EntryLevel() != IcyCold {
		t.Error("cold-area data must enter at IcyCold (slow pages first)")
	}
	if AreaHot.String() != "hot" || AreaCold.String() != "cold" {
		t.Error("area names")
	}
}

func TestSizeCheck(t *testing.T) {
	id := SizeCheck{ThresholdBytes: 16 * 1024}
	if id.Name() != "size-check" {
		t.Error("name")
	}
	if got := id.Classify(0, 4*1024); got != AreaHot {
		t.Errorf("4K write = %v, want hot", got)
	}
	if got := id.Classify(0, 16*1024); got != AreaCold {
		t.Errorf("16K write = %v, want cold (boundary is strict <)", got)
	}
	if got := id.Classify(0, 1<<20); got != AreaCold {
		t.Errorf("1M write = %v, want cold", got)
	}
}

func TestRecencyIdentifier(t *testing.T) {
	id := NewRecency(2)
	if id.Name() != "recency" {
		t.Error("name")
	}
	if id.Classify(1, 0) != AreaCold {
		t.Error("first touch should be cold")
	}
	if id.Classify(1, 0) != AreaHot {
		t.Error("second touch should be hot")
	}
	id.Classify(2, 0)
	id.Classify(3, 0) // evicts 1 (window 2)
	if id.Classify(1, 0) != AreaCold {
		t.Error("evicted LPN should be cold again")
	}
}

func TestStaticIdentifier(t *testing.T) {
	if (Static{Result: AreaHot}).Classify(9, 9) != AreaHot {
		t.Error("static hot")
	}
	if (Static{Result: AreaCold}).Name() != "static-cold" {
		t.Error("static name")
	}
}

func TestTwoLevelBasicFlow(t *testing.T) {
	tr := NewTwoLevelLRU(4, 4, 64)
	lvl, dem, demoted := tr.OnWrite(10, 1)
	if lvl != Hot || demoted {
		t.Fatalf("first write: %v %v", lvl, dem)
	}
	if got, ok := tr.Level(10); !ok || got != Hot {
		t.Fatalf("Level = %v %v", got, ok)
	}
	// A read promotes hot -> iron-hot.
	lvl, dem, demoted, ok := tr.OnRead(10)
	if !ok || lvl != IronHot || demoted {
		t.Fatalf("read promote: %v %v %v", lvl, dem, ok)
	}
	if got, _ := tr.Level(10); got != IronHot {
		t.Fatalf("after promote: %v", got)
	}
	// An update of iron-hot data keeps it iron-hot.
	lvl, _, _ = tr.OnWrite(10, 2)
	if lvl != IronHot {
		t.Fatalf("iron update: %v", lvl)
	}
	if seq, ok := tr.LastWrite(10); !ok || seq != 2 {
		t.Fatalf("LastWrite = %d %v", seq, ok)
	}
}

func TestTwoLevelHotOverflowDemotesToColdArea(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2, 64)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 2)
	_, dem, demoted := tr.OnWrite(3, 3)
	if !demoted || dem.LPN != 1 || dem.LastWrite != 1 {
		t.Fatalf("demotion = %+v (%v), want LPN 1", dem, demoted)
	}
	if _, ok := tr.Level(1); ok {
		t.Error("demoted entry still tracked")
	}
}

func TestTwoLevelIronOverflowDemotesTailToHot(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2, 64)
	// Fill iron: write then read 20, 21.
	for _, lpn := range []uint64{20, 21} {
		tr.OnWrite(lpn, 1)
		tr.OnRead(lpn)
	}
	// Fill hot: 30, 31.
	tr.OnWrite(30, 2)
	tr.OnWrite(31, 2)
	// Promote 30: iron overflows and its tail (20) drops to the hot
	// head. The promotion itself freed a hot slot, so nothing can leave
	// the area through OnRead — every promotion is a 1-for-1 swap.
	lvl, dem, demoted, ok := tr.OnRead(30)
	if !ok || lvl != IronHot {
		t.Fatalf("promotion failed: %v %v", lvl, ok)
	}
	if demoted {
		t.Fatalf("OnRead demoted %+v out of the area; promotion must be a swap", dem)
	}
	if got, _ := tr.Level(20); got != Hot {
		t.Errorf("iron tail should be demoted to hot, got %v", got)
	}
	if got, _ := tr.Level(31); got != Hot {
		t.Errorf("31 should still be hot, got %v", got)
	}
	if tr.IronLen() != 2 || tr.HotLen() != 2 {
		t.Errorf("lens = %d/%d, want 2/2", tr.IronLen(), tr.HotLen())
	}
}

func TestTwoLevelOnReadUnknown(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2, 64)
	if _, _, _, ok := tr.OnRead(99); ok {
		t.Error("unknown LPN should not be hot-area data")
	}
}

func TestTwoLevelDemote(t *testing.T) {
	tr := NewTwoLevelLRU(1, 2, 64)
	tr.OnWrite(1, 1)
	tr.OnRead(1) // 1 in iron
	tr.OnWrite(2, 2)
	// Demote iron entry 1: falls to hot head, hot cap 1 evicts 2.
	dem, demoted := tr.Demote(1)
	if !demoted || dem.LPN != 2 {
		t.Fatalf("demote cascade = %+v (%v)", dem, demoted)
	}
	if got, _ := tr.Level(1); got != Hot {
		t.Errorf("1 should be hot, got %v", got)
	}
	// Demote hot entry 1: leaves the area entirely.
	dem, demoted = tr.Demote(1)
	if !demoted || dem.LPN != 1 {
		t.Fatalf("hot demote = %+v (%v)", dem, demoted)
	}
	if _, ok := tr.Level(1); ok {
		t.Error("1 still tracked")
	}
	if dem, demoted := tr.Demote(42); demoted {
		t.Errorf("demoting unknown LPN = %v", dem)
	}
}

func TestTwoLevelRemove(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2, 64)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 1)
	tr.OnRead(2)
	tr.Remove(1)
	tr.Remove(2)
	tr.Remove(3) // no-op
	if tr.HotLen() != 0 || tr.IronLen() != 0 {
		t.Error("remove failed")
	}
}

func TestTwoLevelLRUOrderIsRecency(t *testing.T) {
	tr := NewTwoLevelLRU(3, 3, 64)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 2)
	tr.OnWrite(3, 3)
	tr.OnWrite(1, 4) // refresh 1; LRU tail is now 2
	_, dem, demoted := tr.OnWrite(4, 5)
	if !demoted || dem.LPN != 2 {
		t.Fatalf("LRU eviction = %+v (%v), want 2", dem, demoted)
	}
}

func TestFreqTableLifecycle(t *testing.T) {
	f := NewFreqTable(100, 2)
	if _, ok := f.Level(5); ok {
		t.Fatal("untracked LPN reported")
	}
	f.OnWrite(5)
	if lvl, ok := f.Level(5); !ok || lvl != IcyCold {
		t.Fatalf("fresh cold write = %v %v, want icy-cold", lvl, ok)
	}
	if lvl, ok := f.OnRead(5); !ok || lvl != IcyCold {
		t.Fatalf("after 1 read = %v, want icy-cold (threshold 2)", lvl)
	}
	if lvl, _ := f.OnRead(5); lvl != Cold {
		t.Fatalf("after 2 reads = %v, want cold", lvl)
	}
	// Rewrite resets frequency: new data at the same address.
	f.OnWrite(5)
	if lvl, _ := f.Level(5); lvl != IcyCold {
		t.Fatalf("after rewrite = %v, want icy-cold", lvl)
	}
	f.Remove(5)
	if _, ok := f.Level(5); ok {
		t.Fatal("removed LPN still tracked")
	}
	if _, ok := f.OnRead(5); ok {
		t.Fatal("OnRead of removed LPN")
	}
}

func TestFreqTableDemotedSeed(t *testing.T) {
	f := NewFreqTable(100, 3)
	f.InsertDemoted(9)
	if lvl, _ := f.Level(9); lvl != IcyCold {
		t.Fatalf("demoted entry = %v, want icy-cold", lvl)
	}
	if lvl, _ := f.OnRead(9); lvl != Cold {
		t.Fatalf("one read should re-promote a demoted entry, got %v", lvl)
	}
}

func TestFreqTableAging(t *testing.T) {
	f := NewFreqTable(8, 2)
	for lpn := uint64(0); lpn < 8; lpn++ {
		f.OnWrite(lpn)
		f.OnRead(lpn)
		f.OnRead(lpn) // every entry cold at count 2
	}
	f.OnWrite(100) // overflow triggers aging: counts halve to 1
	if f.Len() > 8 {
		t.Fatalf("len = %d, cap 8", f.Len())
	}
	if lvl, ok := f.Level(0); ok && lvl == Cold {
		t.Error("aging should have demoted old cold entries")
	}
}

func TestFreqTableAgingDropsZeroCounts(t *testing.T) {
	f := NewFreqTable(4, 2)
	for lpn := uint64(0); lpn < 4; lpn++ {
		f.OnWrite(lpn) // all counts zero
	}
	f.OnWrite(50) // overflow: zero-count entries vanish
	if f.Len() > 4 {
		t.Fatalf("len = %d after aging, cap 4", f.Len())
	}
}

func TestFreqTableDefaultThreshold(t *testing.T) {
	f := NewFreqTable(0, 0) // floors: cap 1, promoteAt 2
	f.OnWrite(1)
	f.OnRead(1)
	if lvl, _ := f.Level(1); lvl != IcyCold {
		t.Error("default threshold should be 2 reads")
	}
	f.OnRead(1)
	if lvl, _ := f.Level(1); lvl != Cold {
		t.Error("2 reads should reach cold")
	}
}

func TestFreqTableCounterSaturates(t *testing.T) {
	f := NewFreqTable(4, 2)
	f.counts[7] = ^uint32(0)
	if lvl, ok := f.OnRead(7); !ok || lvl != Cold {
		t.Fatalf("saturated read = %v %v", lvl, ok)
	}
	if f.counts[7] != ^uint32(0) {
		t.Error("counter overflowed")
	}
}

// Property: list sizes never exceed their capacities, and the lists and
// their shared index stay consistent, so no LPN is on both lists.
func TestPropertyTwoLevelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hotCap, ironCap := 1+rng.Intn(8), 1+rng.Intn(8)
		tr := NewTwoLevelLRU(hotCap, ironCap, 64)
		for step := 0; step < 400; step++ {
			lpn := uint64(rng.Intn(24))
			switch rng.Intn(4) {
			case 0, 1:
				tr.OnWrite(lpn, uint64(step))
			case 2:
				tr.OnRead(lpn)
			case 3:
				tr.Demote(lpn)
			}
			if err := checkLists(tr); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// checkLists walks both lists of tr and returns the first broken
// invariant: each list's links agree with its head, tail and size, and
// the size is within capacity; every node records the level of the list
// holding it; the index maps each listed LPN to its node and tracks
// nothing else.
func checkLists(tr *TwoLevelLRU) error {
	s := &tr.slab
	listed := 0
	for _, l := range []*lruList{&tr.hot, &tr.iron} {
		if l.size > l.cap {
			return fmt.Errorf("%v list holds %d entries, capacity %d", l.level, l.size, l.cap)
		}
		count, prev := 0, nilNode
		for n := l.head; n != nilNode && count <= l.size; n = s.nodes[n].next {
			nd := s.nodes[n]
			switch {
			case nd.prev != prev:
				return fmt.Errorf("%v list: node %d links back to %d, want %d", l.level, n, nd.prev, prev)
			case nd.level != l.level:
				return fmt.Errorf("%v list: node %d records level %v", l.level, n, nd.level)
			case s.lookup(nd.lpn) != n:
				return fmt.Errorf("%v list: LPN %d indexes node %d, listed at %d", l.level, nd.lpn, s.lookup(nd.lpn), n)
			}
			prev = n
			count++
		}
		if count != l.size || prev != l.tail {
			return fmt.Errorf("%v list: walked %d nodes to %d, size %d tail %d", l.level, count, prev, l.size, l.tail)
		}
		listed += count
	}
	indexed := 0
	for _, v := range s.index {
		if v != 0 {
			indexed++
		}
	}
	if indexed != listed {
		return fmt.Errorf("index tracks %d LPNs, lists hold %d", indexed, listed)
	}
	return nil
}

// Property: the frequency table never exceeds its capacity by more than
// the single in-flight insert.
func TestPropertyFreqTableBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		ft := NewFreqTable(capacity, 2)
		for step := 0; step < 500; step++ {
			lpn := uint64(rng.Intn(64))
			if rng.Intn(2) == 0 {
				ft.OnWrite(lpn)
			} else {
				ft.OnRead(lpn)
			}
			if ft.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// benchSpan is the logical page count of the harness bench-scale device,
// the span of the repository benchmark's PPB workload.
const benchSpan = 117849

// BenchmarkTwoLevelLRU drives the tracker the way PPB's host path does —
// a write, a read and a level lookup per step — over a Zipf-skewed LPN
// stream scattered across the bench-scale span, with core's default list
// capacities (span/64 each). The stream runs through once before timing
// so the node slab has reached its steady-state size.
func BenchmarkTwoLevelLRU(b *testing.B) {
	const streamLen = 1 << 16
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, benchSpan-1)
	stream := make([]uint64, streamLen)
	for i := range stream {
		stream[i] = zipf.Uint64() * 2654435761 % benchSpan
	}
	tr := NewTwoLevelLRU(benchSpan/64, benchSpan/64, benchSpan)
	step := func(i int) {
		tr.OnWrite(stream[i%streamLen], uint64(i))
		tr.OnRead(stream[(i+streamLen/2)%streamLen])
		tr.Level(stream[(i+streamLen/4)%streamLen])
	}
	for i := 0; i < streamLen; i++ {
		step(i)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		step(i)
	}
}
