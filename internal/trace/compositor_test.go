package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// makeTimedChild builds n requests with non-decreasing times from a
// seeded source, payload-tagged so merged output can be traced back.
func makeTimedChild(rng *rand.Rand, n int, tenant uint8) []Request {
	reqs := make([]Request, n)
	var t time.Duration
	for i := range reqs {
		t += time.Duration(rng.Intn(5)) * time.Millisecond // 0 allowed: exercises ties
		op := OpRead
		if rng.Intn(2) == 0 {
			op = OpWrite
		}
		reqs[i] = Request{
			Time:   t,
			Op:     op,
			Offset: uint64(rng.Intn(1<<20)) * 4096,
			Size:   4096 * uint32(1+rng.Intn(4)),
			Hot:    rng.Intn(4) == 0,
			Tenant: tenant, // overwritten by the compositor; set to prove it
		}
	}
	return reqs
}

// transform applies the compositor's documented per-child stamps, for
// building expected outputs independently: the n-th request arrives at
// n µs, carries the child's tenant and moves into its address region.
func transform(reqs []Request, c CompositorChild) []Request {
	out := make([]Request, len(reqs))
	for i, r := range reqs {
		r.Time = time.Duration(i) * time.Microsecond
		r.Tenant = c.Tenant
		r.Offset += c.AddrOffset
		out[i] = r
	}
	return out
}

// TestCompositorIsStableSort drives randomized children through the
// compositor and checks the merged output equals a stable sort of the
// transformed children by arrival time: ties resolve to the lowest
// child index, per-child order is preserved, and every request comes
// out exactly once.
func TestCompositorIsStableSort(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		k := 2 + rng.Intn(4)
		children := make([]CompositorChild, k)
		var expected []Request
		for i := 0; i < k; i++ {
			reqs := makeTimedChild(rng, rng.Intn(40), uint8(i))
			children[i] = CompositorChild{
				Stream:     NewSliceStream(reqs),
				Tenant:     uint8(rng.Intn(MaxTenants)),
				AddrOffset: uint64(i) << 30,
			}
			expected = append(expected, transform(reqs, children[i])...)
		}
		// Stable sort by time alone: the flattened order is child-major,
		// so among equal times stability keeps lower children first and
		// per-child order intact — exactly the compositor's contract.
		sort.SliceStable(expected, func(a, b int) bool { return expected[a].Time < expected[b].Time })

		comp := NewCompositor(children...)
		var got []Request
		for {
			r, ok := comp.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if len(got) != len(expected) {
			t.Fatalf("trial %d: merged %d requests, want %d", trial, len(got), len(expected))
		}
		for i := range got {
			if got[i] != expected[i] {
				t.Fatalf("trial %d: request %d = %+v, want %+v", trial, i, got[i], expected[i])
			}
		}
	}
}

// TestCompositorClampsNonMonotone: a child whose source times regress
// still yields every request, in order, on a non-decreasing timeline —
// the compositor's arrival stamps replace the source times, so a broken
// trace cannot send an open-loop replay back in time.
func TestCompositorClampsNonMonotone(t *testing.T) {
	bad := []Request{
		{Time: 10 * time.Millisecond, Op: OpWrite, Offset: 0, Size: 4096},
		{Time: 2 * time.Millisecond, Op: OpWrite, Offset: 4096, Size: 4096}, // regresses
		{Time: 12 * time.Millisecond, Op: OpWrite, Offset: 8192, Size: 4096},
	}
	comp := NewCompositor(CompositorChild{Stream: NewSliceStream(bad), Tenant: 3})
	for i, src := range bad {
		r, ok := comp.Next()
		if !ok {
			t.Fatalf("stream ended after %d requests, want %d (nothing may be dropped)", i, len(bad))
		}
		if want := time.Duration(i) * time.Microsecond; r.Time != want || r.Offset != src.Offset || r.Tenant != 3 {
			t.Fatalf("request %d = %+v, want offset %d of tenant 3 at %v", i, r, src.Offset, want)
		}
	}
	if _, ok := comp.Next(); ok {
		t.Fatal("stream yielded extra requests")
	}
}

// TestCompositorSingleChildIdentity checks the one-child composite with
// tenant 0 and no address shift: it emits the source requests in order
// with every field unchanged except the arrival stamp, n µs for the
// n-th request.
func TestCompositorSingleChildIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs := makeTimedChild(rng, 100, 0)
	comp := NewCompositor(CompositorChild{Stream: NewSliceStream(reqs)})
	for i := range reqs {
		r, ok := comp.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d requests", i, len(reqs))
		}
		want := reqs[i]
		want.Time = time.Duration(i) * time.Microsecond
		if r != want {
			t.Fatalf("request %d = %+v, want %+v", i, r, want)
		}
	}
	if _, ok := comp.Next(); ok {
		t.Fatal("stream yielded extra requests")
	}
}

// TestCompositorNextAllocs pins the merge hot path at zero
// steady-state allocations (the flashvet hotpath root contract; the
// top-level BenchmarkCompositorEventLoop guards the full replay).
func TestCompositorNextAllocs(t *testing.T) {
	reqs := make([]Request, 4096)
	for i := range reqs {
		reqs[i] = Request{Time: time.Duration(i) * time.Millisecond, Op: OpWrite, Offset: uint64(i) * 4096, Size: 4096}
	}
	comp := NewCompositor(
		CompositorChild{Stream: NewSliceStream(reqs[:2048]), Tenant: 0},
		CompositorChild{Stream: NewSliceStream(reqs[2048:]), Tenant: 1},
	)
	allocs := testing.AllocsPerRun(2000, func() {
		comp.Next()
	})
	if allocs != 0 {
		t.Fatalf("Compositor.Next allocates %.1f per op, want 0", allocs)
	}
}

// TestStatsTenantRequests checks per-tenant request counting, including
// the fold of tenant IDs beyond MaxTenants into the last slot.
func TestStatsTenantRequests(t *testing.T) {
	var s Stats
	for i := 0; i < 5; i++ {
		s.Observe(Request{Op: OpWrite, Size: 4096, Tenant: 0})
	}
	for i := 0; i < 3; i++ {
		s.Observe(Request{Op: OpRead, Size: 4096, Tenant: 2})
	}
	s.Observe(Request{Op: OpRead, Size: 4096, Tenant: MaxTenants + 5})
	if s.TenantRequests[0] != 5 || s.TenantRequests[2] != 3 {
		t.Fatalf("TenantRequests = %v, want 5 in slot 0 and 3 in slot 2", s.TenantRequests)
	}
	if s.TenantRequests[MaxTenants-1] != 1 {
		t.Fatalf("tenant %d should fold into slot %d: %v", MaxTenants+5, MaxTenants-1, s.TenantRequests)
	}
	if s.Requests != 9 {
		t.Fatalf("Requests = %d, want 9", s.Requests)
	}
}

// TestCompositorRoundRobin pins the merged stream of a three-child
// composite with unequal child lengths (3, 1 and 2 requests): children
// take turns in index order, an exhausted child drops out of the turn,
// every request carries its child's tenant and address shift, and a
// child's n-th request arrives at n µs.
func TestCompositorRoundRobin(t *testing.T) {
	child := func(n int, base uint64) Stream {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Time: time.Hour, Op: Op(i % 2), Offset: base + uint64(i)*4096, Size: 4096}
		}
		return NewSliceStream(reqs)
	}
	comp := NewCompositor(
		CompositorChild{Stream: child(3, 0), Tenant: 5, AddrOffset: 1 << 20},
		CompositorChild{Stream: child(1, 100<<10), Tenant: 6, AddrOffset: 2 << 20},
		CompositorChild{Stream: child(2, 200<<10), Tenant: 7, AddrOffset: 3 << 20},
	)
	us := time.Microsecond
	want := []Request{
		{Time: 0, Op: OpRead, Offset: 1<<20 + 0, Size: 4096, Tenant: 5},
		{Time: 0, Op: OpRead, Offset: 2<<20 + 100<<10, Size: 4096, Tenant: 6},
		{Time: 0, Op: OpRead, Offset: 3<<20 + 200<<10, Size: 4096, Tenant: 7},
		{Time: us, Op: OpWrite, Offset: 1<<20 + 4096, Size: 4096, Tenant: 5},
		{Time: us, Op: OpWrite, Offset: 3<<20 + 200<<10 + 4096, Size: 4096, Tenant: 7},
		{Time: 2 * us, Op: OpRead, Offset: 1<<20 + 8192, Size: 4096, Tenant: 5},
	}
	for i, w := range want {
		r, ok := comp.Next()
		if !ok {
			t.Fatalf("stream ended after %d requests, want %d", i, len(want))
		}
		if r != w {
			t.Fatalf("request %d = %+v, want %+v", i, r, w)
		}
	}
	if r, ok := comp.Next(); ok {
		t.Fatalf("extra request %+v after the children ended", r)
	}
}
