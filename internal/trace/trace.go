// Package trace defines the block-level I/O request model used by the
// simulator and implements readers/writers for the MSR Cambridge trace
// format (Narayanan et al., "Write Off-Loading", ToS 2008), the trace
// family the paper replays, plus a compact whitespace format for
// hand-written fixtures.
package trace

import (
	"fmt"
	"time"
)

// Op is a request direction.
type Op uint8

// Request directions.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "Read" or "Write" (matching MSR CSV spelling).
func (o Op) String() string {
	if o == OpRead {
		return "Read"
	}
	return "Write"
}

// Request is one block-level I/O.
type Request struct {
	// Time is the request arrival time relative to trace start. Closed-
	// loop replay (the default) ignores it and issues requests back to
	// back, but open-loop replay (harness.ReplayOptions.OpenLoop) issues
	// each request at its Time, so arrival fidelity matters there.
	// Readers must emit non-decreasing, non-negative times; MSRReader
	// clamps non-monotonic source timestamps to enforce this.
	Time time.Duration
	// Op is the direction.
	Op Op
	// Offset is the starting byte offset on the logical disk.
	Offset uint64
	// Size is the request length in bytes.
	Size uint32
	// Hot is an advisory hot-stream tag: workload generators set it on
	// requests they know target frequently re-accessed data (index,
	// metadata, log regions), giving experiments and tests a placement
	// ground truth. Replay does not consume it — FTLs must identify
	// hotness from what a real controller sees (sizes and access
	// history), which is the paper's whole premise — and trace file
	// formats do not carry it.
	Hot bool
	// Tenant identifies the stream a request belongs to in a
	// multi-tenant replay: the Compositor stamps each merged request
	// with its child's tenant ID so the harness can attribute latency
	// and queue delay to the owning tenant and the FTL can partition
	// chip dispatch. Single-stream readers and generators leave it 0,
	// which is also tenant 0 of a composite — the single-tenant replay
	// path is bit-identical either way. IDs at or above MaxTenants fold
	// into the last per-tenant accounting slot.
	Tenant uint8
}

// MaxTenants bounds how many tenants per-tenant accounting tracks
// (Stats.TenantRequests, harness Result.Tenants). Composites may carry
// more tenant IDs, but counters fold IDs >= MaxTenants into the last
// slot, the same way the GC pool counters fold deep pools.
const MaxTenants = 8

// End returns the first byte offset after the request. It wraps for a
// request that reaches 2^64, which Validate rejects.
func (r Request) End() uint64 { return r.Offset + uint64(r.Size) }

// Validate reports malformed requests: zero size, or an end past the
// 64-bit byte address space (offset plus size at or beyond 2^64). It is
// the one owner of these rules; the readers and MSRWriter.Write call it
// and add their own "trace:" context to its error.
func (r Request) Validate() error {
	if r.Size == 0 {
		return fmt.Errorf("zero-size %s at offset %d", r.Op, r.Offset)
	}
	if r.End() < r.Offset {
		return fmt.Errorf("%s of %d bytes at offset %d ends past 2^64", r.Op, r.Size, r.Offset)
	}
	return nil
}

// Pages returns the page-aligned logical page span [first, last] covered
// by the request for the given page size.
func (r Request) Pages(pageSize int) (first, last uint64) {
	ps := uint64(pageSize)
	first = r.Offset / ps
	last = (r.End() - 1) / ps
	return first, last
}

// PageCount returns how many pages of the given size the request touches.
//
//flashvet:testonly perfbench (a separate module) counts the pages each replayed request settles
func (r Request) PageCount(pageSize int) int {
	first, last := r.Pages(pageSize)
	return int(last - first + 1)
}

// Stats summarizes a request stream, one Observe per request; cmd/tracegen
// prints it for the traces it writes.
type Stats struct {
	Requests    int
	Reads       int
	Writes      int
	ReadBytes   uint64
	WriteBytes  uint64
	MaxEnd      uint64
	SmallWrites int // writes below 16 KB, the size-check hot signal
	HotTagged   int // requests the generator tagged as hot-stream
	// TenantRequests counts requests per tenant ID; IDs >= MaxTenants
	// fold into the last slot. A single-tenant stream lands entirely in
	// slot 0.
	TenantRequests [MaxTenants]int
}

// Observe folds one request into the stats.
func (s *Stats) Observe(r Request) {
	s.Requests++
	t := int(r.Tenant)
	if t >= MaxTenants {
		t = MaxTenants - 1
	}
	s.TenantRequests[t]++
	if r.Hot {
		s.HotTagged++
	}
	if r.Op == OpRead {
		s.Reads++
		s.ReadBytes += uint64(r.Size)
	} else {
		s.Writes++
		s.WriteBytes += uint64(r.Size)
		if r.Size < 16*1024 {
			s.SmallWrites++
		}
	}
	if r.End() > s.MaxEnd {
		s.MaxEnd = r.End()
	}
}

// ReadRatio returns the fraction of read requests.
func (s Stats) ReadRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Requests)
}
