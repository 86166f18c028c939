package harness

import (
	"fmt"
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/vblock"
)

// TestTenantLadderSingleTenantIdentity pins the bottom rung of the
// multi-tenant ladder: a Tenants=1 run over TenantWorkloads(1) must be
// bit-identical to the classic single-stream websql run — the tenant
// plumbing in the replay and the tenant fields in the FTL options all
// have to vanish when only one tenant exists.
func TestTenantLadderSingleTenantIdentity(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	base := RunSpec{
		Name: "tl/base", Device: dev, Kind: KindPPB,
		Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 4,
	}
	def, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	single := base
	single.Name = "tl/tenants1"
	single.Workload = testScale.TenantWorkloads(1)
	single.FTLOptions.Tenants = 1
	res, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	res.Name = def.Name
	if res != def {
		t.Errorf("Tenants=1 composite run differs from single-stream run:\n got %+v\nwant %+v", res, def)
	}
	if res.TenantCount != 0 {
		t.Errorf("Tenants=1 run has TenantCount %d, want 0 (no per-tenant accounting)", res.TenantCount)
	}

	// Second rung: on a single-tenant run, tenant-partition dispatch must
	// degenerate to least-loaded exactly (the vblock-level identity,
	// observed through a whole replay).
	part := single
	part.Name = "tl/partition"
	part.FTLOptions.Dispatch = vblock.TenantPartition
	ll := single
	ll.Name = "tl/least-loaded"
	ll.FTLOptions.Dispatch = vblock.LeastLoaded
	pres, err := Run(part)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := Run(ll)
	if err != nil {
		t.Fatal(err)
	}
	pres.Name = lres.Name
	if pres != lres {
		t.Errorf("single-tenant tenant-partition differs from least-loaded:\n got %+v\nwant %+v", pres, lres)
	}
}

// TestMultiTenantResultShape checks the per-tenant accounting of one
// multi-tenant run: TenantCount matches the spec, every tenant completed
// requests, the slots beyond TenantCount stay zero, and the per-tenant
// ops are insensitive to the dispatch policy (the closed loop replays
// the same composite trace regardless of where blocks land).
func TestMultiTenantResultShape(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	run := func(dispatch vblock.DispatchPolicy) Result {
		t.Helper()
		res, err := Run(RunSpec{
			Name: "tshape/" + dispatch.String(), Device: dev, Kind: KindPPB,
			FTLOptions: ftl.Options{Dispatch: dispatch, Tenants: 2},
			Workload:   testScale.TenantWorkloads(2), Prefill: true,
			QueueDepth: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	striped := run(vblock.Striped)
	if striped.TenantCount != 2 {
		t.Fatalf("TenantCount = %d, want 2", striped.TenantCount)
	}
	for i := 0; i < striped.TenantCount; i++ {
		tr := striped.Tenants[i]
		if tr.Tenant != i {
			t.Errorf("slot %d carries tenant ID %d", i, tr.Tenant)
		}
		if tr.Ops == 0 {
			t.Errorf("tenant %d completed no requests", i)
		}
		if tr.ReadP99 == 0 || tr.WriteP99 == 0 {
			t.Errorf("tenant %d has zero latency percentiles: %+v", i, tr)
		}
	}
	for i := striped.TenantCount; i < len(striped.Tenants); i++ {
		if striped.Tenants[i] != (TenantResult{}) {
			t.Errorf("unused tenant slot %d is non-zero: %+v", i, striped.Tenants[i])
		}
	}
	part := run(vblock.TenantPartition)
	for i := 0; i < 2; i++ {
		if striped.Tenants[i].Ops != part.Tenants[i].Ops {
			t.Errorf("tenant %d ops differ across dispatch policies: striped %d, partition %d",
				i, striped.Tenants[i].Ops, part.Tenants[i].Ops)
		}
	}
}

// TestMultiTenantDeterministicAcrossParallelism is the harness half of
// the compositor determinism property: a batch of multi-tenant runs
// executed through RunAll must produce byte-identical results at
// parallelism 1 and 8, per-tenant breakdowns included (Result.Tenants
// is inside the compared struct).
func TestMultiTenantDeterministicAcrossParallelism(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	var specs []RunSpec
	for _, n := range []int{2, 4} {
		for _, dispatch := range []vblock.DispatchPolicy{vblock.Striped, vblock.TenantPartition} {
			specs = append(specs, RunSpec{
				Name:   fmt.Sprintf("tpar/t%d/%s", n, dispatch),
				Device: dev, Kind: KindPPB,
				FTLOptions: ftl.Options{Dispatch: dispatch, Tenants: n},
				Workload:   testScale.TenantWorkloads(n), Prefill: true,
				QueueDepth: 8,
			})
		}
	}
	seq, err := RunAll(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(specs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("%s: parallel result differs from sequential:\n got %+v\nwant %+v",
				specs[i].Name, par[i], seq[i])
		}
	}
}

// TestTenantSweepShape asserts the headline fairness claim of
// experiment a10 at the two-tenant point, where each tenant's partition
// still spans two chips: confining the mediaserver neighbor's
// allocations — and the GC they cascade into — to its own chips must
// not worsen the websql tenant's read p99 at any swept depth versus
// placement-blind striping. (At four tenants on four chips a partition
// is a single chip, so isolation deliberately trades per-tenant chip
// parallelism for interference bounds — that corner is golden-pinned,
// not shape-asserted.) Also checks the sweep emits a full per-tenant
// series grid with no silent holes.
func TestTenantSweepShape(t *testing.T) {
	fig, err := tenantSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tenantSweepDepths)
	striped := fig.Series["t2/striped/tenant0/readp99"]
	part := fig.Series["t2/tenant-partition/tenant0/readp99"]
	if len(striped) != n || len(part) != n {
		t.Fatalf("t2 tenant0 readp99 series lengths %d/%d, want %d", len(striped), len(part), n)
	}
	for i, qd := range tenantSweepDepths {
		if part[i] > striped[i] {
			t.Errorf("QD%d: partitioned websql tenant read p99 %.5fs above striped %.5fs",
				qd, part[i], striped[i])
		}
	}
	for _, tc := range tenantCounts {
		for _, policy := range tenantDispatchPolicies {
			key := fmt.Sprintf("t%d/%s", tc, policy)
			for _, series := range []string{"/makespan", "/erases"} {
				if got := len(fig.Series[key+series]); got != n {
					t.Errorf("series %q has %d points, want %d", key+series, got, n)
				}
			}
			for tenant := 0; tenant < tc; tenant++ {
				for _, series := range []string{"/readp99", "/qdelayp99", "/ops"} {
					k := fmt.Sprintf("%s/tenant%d%s", key, tenant, series)
					if got := len(fig.Series[k]); got != n {
						t.Errorf("series %q has %d points, want %d", k, got, n)
					}
				}
			}
		}
	}
}
