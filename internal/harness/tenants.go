package harness

import (
	"fmt"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/vblock"
	"ppbflash/internal/workload"
)

// tenantCounts is the tenant-population axis of experiment a10: two
// tenants (websql vs mediaserver) and four (the full roster, adding the
// hot and cold synthetic mixes — see Scale.tenantGenerator).
var tenantCounts = []int{2, 4}

// tenantDispatchPolicies is the dispatch axis of experiment a10:
// placement-blind striping (every tenant's allocations interleave on
// every chip), hard per-tenant chip partitions, and hot/cold affinity
// with its per-tenant slices — the isolation ladder from none to full.
var tenantDispatchPolicies = []vblock.DispatchPolicy{vblock.Striped, vblock.TenantPartition, vblock.HotColdAffinity}

// tenantSweepDepths is the queue-depth axis of experiment a10: deep
// enough that one tenant's GC bursts actually sit in front of another
// tenant's reads, which is the interference the partition policies
// exist to bound.
var tenantSweepDepths = []int{4, 16}

// NewTenantPageOpsFTL builds the multi-tenant microbenchmark subject: a
// 512 MB-class Table 1 device spread over four chips under
// tenant-partition dispatch with a four-tenant population. Both
// BenchmarkCompositorEventLoop and `ppbench -json` use this one
// constructor so the two always measure the same configuration.
func NewTenantPageOpsFTL() (ftl.FTL, error) {
	dev, err := nand.NewDevice(nand.TableOneConfig().Scaled(128).WithChips(4))
	if err != nil {
		return nil, err
	}
	return buildFTL(RunSpec{Kind: KindConventional, FTLOptions: ftl.Options{
		OverProvision: 0.2,
		Dispatch:      vblock.TenantPartition,
		Tenants:       4,
	}}, dev)
}

// compositorEventLoopTenants is the tenant population of the compositor
// event-loop microbenchmark.
const compositorEventLoopTenants = 4

// RunCompositorEventLoop is RunEventLoop's multi-tenant sibling: n
// synthetic single-page requests pulled through a four-child
// trace.Compositor (round-robin, per-tenant address regions via
// AddrOffset) and replayed by ReplayQueued with per-tenant
// attribution and dispatch active. The delta over BenchmarkEventLoop is
// the compositor merge plus the tenant bookkeeping per request; its
// steady state must stay at 0 allocs/op (the CI alloc smoke checks).
// m accumulates across calls.
func RunCompositorEventLoop(f ftl.FTL, m *ReplayMetrics, n int) error {
	span := f.LogicalPages()
	pageSize := uint32(f.Device().Config().PageSize)
	region := span / compositorEventLoopTenants
	perTenant := n / compositorEventLoopTenants
	children := make([]trace.CompositorChild, compositorEventLoopTenants)
	for t := range children {
		emitted := 0
		children[t] = trace.CompositorChild{
			Stream: &workload.Func{
				WorkloadName: "compositor-eventloop-child",
				Bytes:        region * uint64(pageSize),
				NextFunc: func() (trace.Request, bool) {
					if emitted >= perTenant {
						return trace.Request{}, false
					}
					r := trace.Request{
						Op:     trace.OpWrite,
						Offset: (uint64(emitted) / 2 % region) * uint64(pageSize),
						Size:   pageSize,
					}
					if emitted%2 == 1 {
						r.Op = trace.OpRead
					}
					emitted++
					return r, true
				},
			},
			Tenant:     uint8(t),
			AddrOffset: uint64(t) * region * uint64(pageSize),
		}
	}
	comp := trace.NewCompositor(children...)
	if m.TenantCount() == 0 {
		m.EnableTenants(compositorEventLoopTenants)
	}
	gen := &workload.Func{
		WorkloadName: "compositor-eventloop",
		Bytes:        span * uint64(pageSize),
		NextFunc:     comp.Next,
	}
	return ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: EventLoopQueueDepth})
}

// tenantSweep (experiment a10) measures multi-tenant fairness and
// isolation: tenant count x dispatch policy x queue depth on the 4-chip
// device under PPB, replaying the composite tenant workload
// (Scale.TenantWorkloads — round-robin merge, per-tenant address
// regions). Every cell reports the global makespan and erases plus each
// tenant's own read p99, queue-delay p99 and completed requests, the
// numbers the fairness shape test bounds: under striping a
// write-heavy neighbor's GC lands in front of the websql tenant's
// reads, while tenant-partition confines each tenant — allocations and
// the GC they cascade into — to its own chips.
func tenantSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a10-tenant-sweep", "Experiment a10: tenant count x dispatch policy x queue depth (tenant mix, 4 chips, PPB)",
		"tenants", "dispatch", "QD", "makespan (s)", "erases", "t0 read p99", "t0 qdelay p99", "worst read p99")
	for _, n := range tenantCounts {
		for _, policy := range tenantDispatchPolicies {
			key := fmt.Sprintf("t%d/%s", n, policy)
			for _, qd := range tenantSweepDepths {
				sw.single(RunSpec{
					Name: fmt.Sprintf("tenant-sweep/%s/qd%d/ppb", key, qd), Device: fourChipDevice(s),
					Kind: KindPPB, Workload: s.TenantWorkloads(n), QueueDepth: qd,
					FTLOptions: ftl.Options{Dispatch: policy, Tenants: n},
				}, func(res Result) {
					sw.add(key+"/makespan", res.Makespan.Seconds())
					sw.add(key+"/erases", float64(res.Erases))
					worst := res.Tenants[0].ReadP99
					for t := 0; t < res.TenantCount; t++ {
						tr := res.Tenants[t]
						tkey := fmt.Sprintf("%s/tenant%d", key, t)
						sw.add(tkey+"/readp99", tr.ReadP99.Seconds())
						sw.add(tkey+"/qdelayp99", tr.QueueDelayP99.Seconds())
						sw.add(tkey+"/ops", float64(tr.Ops))
						if tr.ReadP99 > worst {
							worst = tr.ReadP99
						}
					}
					sw.Table.AddRow(n, policy, qd, res.Makespan.Seconds(), res.Erases,
						res.Tenants[0].ReadP99, res.Tenants[0].QueueDelayP99, worst)
				})
			}
		}
	}
	return sw.run(s)
}
