package harness

import (
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/vblock"
	"ppbflash/internal/workload"
)

// The hot-path benchmarks: the page-op loop and the discrete-event
// replay on small devices, each of which must stay at 0 allocs/op. CI's
// alloc smoke runs them all:
//
//	go test -run '^$' -bench 'PageOps|EventLoop' -benchmem -benchtime=100000x ./internal/harness
//
// The iteration count exceeds the devices' ~33k pages, so garbage
// collection runs and its path is covered.

// hotPathDevice is the 512 MB-class Table 1 device every subject starts
// from.
var hotPathDevice = nand.TableOneConfig().Scaled(128)

// hotPathSpecs holds each benchmark's subject, keyed by benchmark name;
// newHotPathFTL builds it through buildFTL like any run. Every subject
// has 20% over-provisioning.
var hotPathSpecs = map[string]RunSpec{
	"DevicePageOps": {Device: hotPathDevice, Kind: KindConventional,
		FTLOptions: ftl.Options{OverProvision: 0.2}},
	"PPBPageOps": {Device: hotPathDevice, Kind: KindPPB,
		FTLOptions: ftl.Options{OverProvision: 0.2}},
	// The "high" error profile, so the retry path fires, under
	// wear-aware GC.
	"ReliabilityPageOps": {Device: hotPathDevice, Kind: KindConventional,
		FTLOptions: ftl.Options{OverProvision: 0.2, Reliability: unretiringHighProfile(),
			ReliabilitySeed: 1, Wear: ftl.WearAware}},
	// Four chips of four planes each, with the default reordering window
	// the ftl layer installs for multi-plane geometries, and erase
	// suspension on.
	"IntraChipPageOps": {Device: hotPathDevice.WithChips(4).WithPlanes(4), Kind: KindConventional,
		FTLOptions: ftl.Options{OverProvision: 0.2, Suspend: nand.SuspendErase}},
	"EventLoop": {Device: hotPathDevice, Kind: KindConventional,
		FTLOptions: ftl.Options{OverProvision: 0.2}},
	// Four chips under tenant-partition dispatch with a four-tenant
	// population.
	"CompositorEventLoop": {Device: hotPathDevice.WithChips(4), Kind: KindConventional,
		FTLOptions: ftl.Options{OverProvision: 0.2, Dispatch: vblock.TenantPartition,
			Tenants: compositorEventLoopTenants}},
}

// unretiringHighProfile is the "high" reliability profile with both
// retirement thresholds off: a benchmark runs an unbounded number of
// iterations, and retiring blocks would eventually shrink the pool out
// from under it.
func unretiringHighProfile() *nand.ReliabilityConfig {
	prof, err := nand.ReliabilityProfileByName("high")
	if err != nil {
		panic(err)
	}
	prof.PECycleLimit = 0
	prof.UncorrectableLimit = 0
	return &prof
}

// newHotPathFTL builds the named benchmark's subject and resets the
// benchmark's timer.
func newHotPathFTL(b *testing.B, name string) ftl.FTL {
	b.Helper()
	spec := hotPathSpecs[name]
	dev, err := nand.NewDevice(spec.Device)
	if err != nil {
		b.Fatal(err)
	}
	f, err := buildFTL(spec, dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return f
}

// runPageOps executes n iterations of the page-op loop: write then read
// back, every third write bulk-sized so size-check identifiers exercise
// both areas.
func runPageOps(f ftl.FTL, n int) error {
	span := f.LogicalPages()
	for i := 0; i < n; i++ {
		lpn := uint64(i) % span
		size := 4096
		if i%3 == 0 {
			size = 64 * 1024
		}
		if err := f.Write(lpn, size); err != nil {
			return err
		}
		if _, err := f.Read(lpn); err != nil {
			return err
		}
	}
	return nil
}

// benchPageOps runs the page-op loop on the named subject.
func benchPageOps(b *testing.B, name string) {
	f := newHotPathFTL(b, name)
	if err := runPageOps(f, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDevicePageOps measures the raw simulator throughput
// (program+read+invalidate cycles), the cost floor under every
// experiment.
func BenchmarkDevicePageOps(b *testing.B) { benchPageOps(b, "DevicePageOps") }

// BenchmarkPPBPageOps is the PPB-strategy counterpart of
// BenchmarkDevicePageOps: the per-operation bookkeeping overhead of the
// four-level identification and virtual-block allocation.
func BenchmarkPPBPageOps(b *testing.B) { benchPageOps(b, "PPBPageOps") }

// BenchmarkReliabilityPageOps runs the same loop with the layer-aware
// reliability model injecting read retries — the retried-read hot path:
// sampling, retry accounting and retirement bookkeeping all run
// allocation-free.
func BenchmarkReliabilityPageOps(b *testing.B) { benchPageOps(b, "ReliabilityPageOps") }

// BenchmarkIntraChipPageOps runs the page-op loop with intra-chip
// parallelism enabled, so the multi-plane booking (bookStart/bookFinish
// over the plane clocks) and the suspend-resume decision sit on the
// measured path.
func BenchmarkIntraChipPageOps(b *testing.B) { benchPageOps(b, "IntraChipPageOps") }

// eventLoopQueueDepth is the closed-loop host queue depth of the
// event-loop benchmarks: deep enough that the event heap holds a real
// mix of completion and issue events instead of degenerating to the
// depth-1 ping-pong.
const eventLoopQueueDepth = 8

// compositorEventLoopTenants is the tenant population of
// BenchmarkCompositorEventLoop.
const compositorEventLoopTenants = 4

// writeReadBack streams n single-page requests over span pages: a write
// to each page, then a read-back of it, wrapping around the span.
func writeReadBack(name string, n int, span uint64, pageSize uint32) *workload.Func {
	i := 0
	return &workload.Func{
		WorkloadName: name,
		Bytes:        span * uint64(pageSize),
		NextFunc: func() (trace.Request, bool) {
			if i >= n {
				return trace.Request{}, false
			}
			r := trace.Request{
				Op:     trace.OpWrite,
				Offset: (uint64(i) / 2 % span) * uint64(pageSize),
				Size:   pageSize,
			}
			if i%2 == 1 {
				r.Op = trace.OpRead
			}
			i++
			return r, true
		},
	}
}

// BenchmarkEventLoop measures the discrete-event replay machinery
// itself: each iteration is one host request pulled from a generator,
// pushed through the scheduler's event heap as issue and completion
// events, and retired. The page-op benchmarks above bound the device
// cost; the delta here is the event loop's own overhead. Steady state
// must stay at 0 allocs/op: the heap's backing array and the replay's
// locals are reused across events.
func BenchmarkEventLoop(b *testing.B) {
	m := NewReplayMetrics()
	f := newHotPathFTL(b, "EventLoop")
	pageSize := uint32(f.Device().Config().PageSize)
	gen := writeReadBack("eventloop", b.N, f.LogicalPages(), pageSize)
	if err := ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: eventLoopQueueDepth}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCompositorEventLoop measures the multi-tenant replay stack:
// each iteration is one request merged out of a four-child stream
// compositor (round-robin, per-tenant address regions), issued through
// the event loop with per-tenant latency attribution and
// tenant-partition dispatch on a four-chip device. The delta over
// BenchmarkEventLoop is the compositor merge plus the tenant
// bookkeeping. Steady state must stay at 0 allocs/op: the compositor's
// slots, the per-tenant histograms and the replay's locals are all
// allocated up front.
func BenchmarkCompositorEventLoop(b *testing.B) {
	m := NewReplayMetrics()
	m.EnableTenants(compositorEventLoopTenants)
	f := newHotPathFTL(b, "CompositorEventLoop")
	span := f.LogicalPages()
	pageSize := uint32(f.Device().Config().PageSize)
	region := span / compositorEventLoopTenants
	children := make([]trace.CompositorChild, compositorEventLoopTenants)
	for t := range children {
		children[t] = trace.CompositorChild{
			Stream:     writeReadBack("compositor-eventloop-child", b.N/compositorEventLoopTenants, region, pageSize),
			Tenant:     uint8(t),
			AddrOffset: uint64(t) * region * uint64(pageSize),
		}
	}
	gen := &workload.Func{
		WorkloadName: "compositor-eventloop",
		Bytes:        span * uint64(pageSize),
		NextFunc:     trace.NewCompositor(children...).Next,
	}
	if err := ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: eventLoopQueueDepth}); err != nil {
		b.Fatal(err)
	}
}
