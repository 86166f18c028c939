package hotness

// lruSlab holds the nodes of a tracker's capacity-bounded LRU lists and
// the per-LPN index that finds them. An LPN is on at most one of the
// lists, and its node records which one (the list's level), so the lists
// of one tracker share a single index.
//
// Nodes live in a slab linked by int32 indices instead of
// container/list: every host write and read touches these lists, so
// insertion and eviction must not allocate per operation. The slab never
// exceeds the lists' total capacity plus one node (an insert evicts back
// to capacity immediately), and freed nodes are recycled through a free
// chain.
//
// The index is a dense array holding node+1 per LPN, 0 meaning
// untracked: finding an LPN is one array load instead of a hash lookup,
// and the zeroed array needs no initialization pass. It costs 4 bytes
// per LPN of the span the tracker is built with. Inserting an LPN past
// the end grows it (Recency does not know the span), and looking one up
// there reads as untracked.
type lruSlab struct {
	nodes []lruNode
	free  int32   // recycled-node chain (linked through next)
	index []int32 // lpn -> node+1; 0 = untracked
}

const nilNode = int32(-1)

type lruNode struct {
	lpn   uint64
	val   uint64
	prev  int32
	next  int32
	level Level // level of the list holding the node
}

// lruList is one capacity-bounded LRU over a slab, with an attached
// uint64 value per entry (PPB stores the sequence number of the last
// write, used by the "demote if not modified" rule).
type lruList struct {
	level Level // recorded in every node on the list
	cap   int
	size  int
	head  int32 // most recently used; nilNode when empty
	tail  int32 // least recently used
}

// lruEntry is the exported-shape view of a node (lpn + value), returned
// for evictions.
type lruEntry struct {
	lpn uint64
	val uint64
}

// newLRUSlab builds a slab whose index covers the LPN range [0, span).
func newLRUSlab(span uint64) lruSlab {
	return lruSlab{free: nilNode, index: make([]int32, span)}
}

func newLRUList(level Level, capacity int) lruList {
	if capacity < 1 {
		capacity = 1
	}
	return lruList{level: level, cap: capacity, head: nilNode, tail: nilNode}
}

// lookup returns the node of lpn, or nilNode when lpn is untracked.
func (s *lruSlab) lookup(lpn uint64) int32 {
	if lpn < uint64(len(s.index)) {
		return s.index[lpn] - 1
	}
	return nilNode
}

// alloc takes a node for lpn from the free chain (or grows the slab) and
// indexes it. The node is not yet on any list.
func (s *lruSlab) alloc(lpn, val uint64) int32 {
	n := s.free
	if n != nilNode {
		s.free = s.nodes[n].next
	} else {
		s.nodes = append(s.nodes, lruNode{})
		n = int32(len(s.nodes) - 1)
	}
	s.nodes[n] = lruNode{lpn: lpn, val: val}
	if lpn >= uint64(len(s.index)) {
		s.index = append(s.index, make([]int32, lpn+1-uint64(len(s.index)))...)
	}
	s.index[lpn] = n + 1
	return n
}

// unlink detaches node n from list l.
func (s *lruSlab) unlink(l *lruList, n int32) {
	nd := &s.nodes[n]
	if nd.prev != nilNode {
		s.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != nilNode {
		s.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
	l.size--
}

// pushFront links node n at the MRU position of list l.
func (s *lruSlab) pushFront(l *lruList, n int32) {
	nd := &s.nodes[n]
	nd.prev, nd.next, nd.level = nilNode, l.head, l.level
	if l.head != nilNode {
		s.nodes[l.head].prev = n
	}
	l.head = n
	if l.tail == nilNode {
		l.tail = n
	}
	l.size++
}

// touch moves node n, which is on list l, to l's MRU position.
func (s *lruSlab) touch(l *lruList, n int32) {
	if l.head != n {
		s.unlink(l, n)
		s.pushFront(l, n)
	}
}

// drop unlinks node n from list l, forgets its LPN and recycles the node.
func (s *lruSlab) drop(l *lruList, n int32) lruEntry {
	s.unlink(l, n)
	nd := &s.nodes[n]
	s.index[nd.lpn] = 0
	nd.next = s.free
	s.free = n
	return lruEntry{lpn: nd.lpn, val: nd.val}
}

// insertFront adds the untracked lpn at the MRU position of list l and
// returns the entry evicted from l's tail when l overflows.
func (s *lruSlab) insertFront(l *lruList, lpn, val uint64) (evicted lruEntry, overflow bool) {
	s.pushFront(l, s.alloc(lpn, val))
	return s.evict(l)
}

// evict drops the LRU tail of list l when l is over capacity.
func (s *lruSlab) evict(l *lruList) (evicted lruEntry, overflow bool) {
	if l.size <= l.cap {
		return lruEntry{}, false
	}
	return s.drop(l, l.tail), true
}
