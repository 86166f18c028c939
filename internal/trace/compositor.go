package trace

import "time"

// CompositorChild configures one tenant stream of a Compositor.
type CompositorChild struct {
	// Stream supplies the child's requests. Like every Stream it is
	// one-shot; if it can fail mid-stream (an ErrStream over a file
	// reader), the caller checks that stream's own Err after the replay
	// — the compositor only sees "ended".
	Stream Stream

	// Tenant is stamped onto every request the child emits
	// (Request.Tenant), attributing it to this stream in per-tenant
	// accounting and dispatch.
	Tenant uint8

	// AddrOffset shifts the child's logical byte addresses, carving the
	// composite logical space into per-tenant regions: the caller sizes
	// each child to its region and offsets region i by the sum of the
	// preceding region sizes.
	AddrOffset uint64
}

// compositorSlot is the per-child merge state.
type compositorSlot struct {
	cfg  CompositorChild
	done bool // child stream ended
}

// Compositor merges child streams into one multi-tenant Stream,
// round-robin: the children take turns in index order, one request per
// turn, and a child whose stream ends drops out of the turn. Each
// request is stamped with its child's tenant ID, shifted into the
// child's address region, and given the arrival time n µs for the
// child's n-th request (counting from 0), so the merged times never
// decrease and ties fall to the lower child index. Closed-loop replay
// consumes the merge order; open-loop replay issues at the stamped
// times, one round per microsecond.
//
// All merge state is allocated at construction; Next is allocation-free
// (it is on the replay hot path of every multi-tenant run).
type Compositor struct {
	slots []compositorSlot
	live  int           // children whose stream has not ended
	next  int           // child whose turn comes next
	round time.Duration // arrival time of the current round
}

// NewCompositor builds a compositor over the given children, which take
// their turns in slice order. With no children the stream is empty.
func NewCompositor(children ...CompositorChild) *Compositor {
	c := &Compositor{slots: make([]compositorSlot, len(children)), live: len(children)}
	for i, ch := range children {
		c.slots[i].cfg = ch
	}
	return c
}

// Next returns the request of the next child in turn that still has
// one.
//
//flashvet:hotpath
func (c *Compositor) Next() (Request, bool) {
	for c.live > 0 {
		s, at := &c.slots[c.next], c.round
		if c.next++; c.next == len(c.slots) {
			c.next, c.round = 0, c.round+time.Microsecond
		}
		if s.done {
			continue
		}
		r, ok := s.cfg.Stream.Next()
		if !ok {
			s.done = true
			c.live--
			continue
		}
		r.Time = at
		r.Tenant = s.cfg.Tenant
		r.Offset += s.cfg.AddrOffset
		return r, true
	}
	return Request{}, false
}
