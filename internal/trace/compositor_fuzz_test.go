package trace

import (
	"testing"
	"time"
)

// FuzzCompositor builds child streams from the fuzz input — the first
// byte picks the child count (1 to MaxTenants), every later byte adds
// one request to child byte%count — and checks the invariants every
// multi-tenant replay depends on: no panic, request-count conservation,
// per-child order, round-robin order (round r emits the r-th request of
// every child that has one, in child order), the tenant and address
// stamps, and non-decreasing arrival times, r µs in round r.
func FuzzCompositor(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 0, 1})
	f.Add([]byte{3, 0, 0, 0, 2})    // child 1 empty
	f.Add([]byte{7, 6, 5, 4, 3, 2}) // more children than requests
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kids := 1 + int(data[0])%MaxTenants
		reqs := make([][]Request, kids)
		for i, b := range data[1:] {
			k := int(b) % kids
			reqs[k] = append(reqs[k], Request{
				Time:   time.Duration(i) * time.Second, // replaced by the arrival stamp
				Op:     Op(int(b) / kids % 2),
				Offset: uint64(len(reqs[k])) * 4096,
				Size:   4096,
			})
		}
		children := make([]CompositorChild, kids)
		for k := range children {
			children[k] = CompositorChild{Stream: NewSliceStream(reqs[k]), Tenant: uint8(k), AddrOffset: uint64(k) << 40}
		}
		comp := NewCompositor(children...)
		var last time.Duration
		for round := 0; ; round++ {
			emitted := false
			for k := range reqs {
				if round >= len(reqs[k]) {
					continue
				}
				r, ok := comp.Next()
				if !ok {
					t.Fatalf("stream ended before child %d's request %d", k, round)
				}
				want := reqs[k][round]
				want.Time = time.Duration(round) * time.Microsecond
				want.Tenant = uint8(k)
				want.Offset += uint64(k) << 40
				if r != want {
					t.Fatalf("round %d: got %+v, want child %d's request %+v", round, r, k, want)
				}
				if r.Time < last {
					t.Fatalf("merged output went back in time: %v after %v", r.Time, last)
				}
				last = r.Time
				emitted = true
			}
			if !emitted {
				break
			}
		}
		if r, ok := comp.Next(); ok {
			t.Fatalf("extra request %+v after every child's requests were merged", r)
		}
	})
}
