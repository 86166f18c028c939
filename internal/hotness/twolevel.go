package hotness

// TwoLevelLRU is the hot-area tracker of the PPB strategy (Figure 10a):
// newly written hot data enters the head of the hot list; a read promotes
// an entry from the hot list to the iron-hot list; overflowing either
// list demotes its LRU tail one step down (iron-hot -> hot -> out of the
// hot area). The paper picks a two-level LRU "for its simplicity because
// hot data is typically re-accessed frequently".
//
// The tracker records logical membership only; physical data movement is
// the FTL's job and happens progressively (on update or GC).
//
// Both lists share one node slab and one per-LPN index, so every
// operation finds its LPN, and the list holding it, with one array load.
type TwoLevelLRU struct {
	slab lruSlab
	hot  lruList
	iron lruList
}

// Demotion reports an entry that fell out of the hot area (from the hot
// list tail) and must be handed to the cold area.
type Demotion struct {
	LPN       uint64
	LastWrite uint64 // sequence number of the entry's last write
}

// NewTwoLevelLRU builds a tracker with the given per-list entry
// capacities whose index covers the LPN range [0, span), at 4 bytes per
// LPN. An LPN beyond the span reads as untracked; writing one grows the
// index.
func NewTwoLevelLRU(hotCap, ironCap int, span uint64) *TwoLevelLRU {
	return &TwoLevelLRU{
		slab: newLRUSlab(span),
		hot:  newLRUList(Hot, hotCap),
		iron: newLRUList(IronHot, ironCap),
	}
}

// list returns the list holding node n.
func (t *TwoLevelLRU) list(n int32) *lruList {
	if t.slab.nodes[n].level == IronHot {
		return &t.iron
	}
	return &t.hot
}

// Level returns the hot-area level of lpn and whether it is tracked.
func (t *TwoLevelLRU) Level(lpn uint64) (Level, bool) {
	if n := t.slab.lookup(lpn); n != nilNode {
		return t.slab.nodes[n].level, true
	}
	return 0, false
}

// OnWrite records a write of lpn with the given sequence number: tracked
// entries are refreshed in place (an update does not change the level; an
// iron-hot chunk that is rewritten is still frequently read *and*
// written), new entries enter the hot list head. At most one entry can
// fall out of the area per write; when demoted is true the caller must
// insert dem into the cold area. (The single-value return — rather than
// a slice — keeps the per-write tracker update allocation-free.)
func (t *TwoLevelLRU) OnWrite(lpn uint64, seq uint64) (lvl Level, dem Demotion, demoted bool) {
	if n := t.slab.lookup(lpn); n != nilNode {
		l := t.list(n)
		t.slab.touch(l, n)
		t.slab.nodes[n].val = seq
		return l.level, Demotion{}, false
	}
	if ev, overflow := t.slab.insertFront(&t.hot, lpn, seq); overflow {
		return Hot, Demotion{LPN: ev.lpn, LastWrite: ev.val}, true
	}
	return Hot, Demotion{}, false
}

// OnRead records a read of lpn. A hot-list hit is promoted to the
// iron-hot list (Figure 10a "promote if read"); an iron-hot hit is
// refreshed. Promotion can cascade a demotion: the iron tail falls to
// the hot head, and the hot tail may fall out of the area (dem, when
// demoted is true). The returned level is the entry's level after the
// read; ok is false when lpn is not hot-area data.
func (t *TwoLevelLRU) OnRead(lpn uint64) (lvl Level, dem Demotion, demoted, ok bool) {
	n := t.slab.lookup(lpn)
	if n == nilNode {
		return 0, Demotion{}, false, false
	}
	if t.slab.nodes[n].level == IronHot {
		t.slab.touch(&t.iron, n)
		return IronHot, Demotion{}, false, true
	}
	t.slab.unlink(&t.hot, n)
	t.slab.pushFront(&t.iron, n)
	if t.iron.size > t.iron.cap {
		// Iron tail drops to the hot head ("demote if full"), which may
		// push the hot tail out of the area.
		if dem, demoted := t.toHot(t.iron.tail); demoted {
			return IronHot, dem, true, true
		}
	}
	return IronHot, Demotion{}, false, true
}

// toHot moves iron-hot node n to the hot list head and returns the hot
// tail that falls out of the area, if any.
func (t *TwoLevelLRU) toHot(n int32) (dem Demotion, demoted bool) {
	t.slab.unlink(&t.iron, n)
	t.slab.pushFront(&t.hot, n)
	if ev, overflow := t.slab.evict(&t.hot); overflow {
		return Demotion{LPN: ev.lpn, LastWrite: ev.val}, true
	}
	return Demotion{}, false
}

// Demote moves an iron-hot entry down to the hot list, or removes a
// hot-list entry from the area entirely, returning any cascaded demotion.
// Used by the FTL when virtual-block pressure forces a demotion
// (Figure 10b II: "demote when iron-hot data update").
func (t *TwoLevelLRU) Demote(lpn uint64) (dem Demotion, demoted bool) {
	n := t.slab.lookup(lpn)
	if n == nilNode {
		return Demotion{}, false
	}
	if t.slab.nodes[n].level == IronHot {
		return t.toHot(n)
	}
	ev := t.slab.drop(&t.hot, n)
	return Demotion{LPN: ev.lpn, LastWrite: ev.val}, true
}

// LastWrite returns the sequence number recorded for the entry's most
// recent write. Used by the "demote if not modified" GC rule.
func (t *TwoLevelLRU) LastWrite(lpn uint64) (uint64, bool) {
	if n := t.slab.lookup(lpn); n != nilNode {
		return t.slab.nodes[n].val, true
	}
	return 0, false
}
