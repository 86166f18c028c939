package harness

import (
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/vblock"
)

// TestDispatchSweepShape asserts the headline claims of experiment a6 on
// the skewed websql trace: following the chip clocks (least-loaded) never
// loses to placement-blind striping on makespan at any swept queue depth,
// wins outright in aggregate, and trims the queueing-delay tail at the
// deepest depth.
func TestDispatchSweepShape(t *testing.T) {
	fig, err := dispatchSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(dispatchSweepDepths)
	deepest := n - 1
	var stripedSum, llSum float64
	for _, kind := range []string{"conv", "ppb"} {
		striped := fig.Series["websql/striped/makespan/"+kind]
		ll := fig.Series["websql/least-loaded/makespan/"+kind]
		if len(striped) != n || len(ll) != n {
			t.Fatalf("%s: makespan series lengths %d/%d, want %d", kind, len(striped), len(ll), n)
		}
		for i, qd := range dispatchSweepDepths {
			if ll[i] > striped[i] {
				t.Errorf("%s QD%d: least-loaded makespan %.3fs above striped %.3fs",
					kind, qd, ll[i], striped[i])
			}
			stripedSum += striped[i]
			llSum += ll[i]
		}
		sq := fig.Series["websql/striped/qdelayp99/"+kind]
		lq := fig.Series["websql/least-loaded/qdelayp99/"+kind]
		if len(sq) != n || len(lq) != n {
			t.Fatalf("%s: qdelay series lengths %d/%d, want %d", kind, len(sq), len(lq), n)
		}
		if lq[deepest] > sq[deepest] {
			t.Errorf("%s QD%d: least-loaded queue delay p99 %.4fs above striped %.4fs",
				kind, dispatchSweepDepths[deepest], lq[deepest], sq[deepest])
		}
	}
	if llSum >= stripedSum {
		t.Errorf("least-loaded aggregate websql makespan %.3fs not strictly below striped %.3fs",
			llSum, stripedSum)
	}
	// Every policy produces a full series for both traces — no silent
	// holes in the sweep.
	for _, pt := range paperTraces {
		tr := pt.name
		for _, policy := range dispatchPolicies {
			for _, series := range []string{"/makespan/conv", "/makespan/ppb", "/qdelayp99/conv", "/qdelayp99/ppb"} {
				key := tr + "/" + policy.String() + series
				if got := len(fig.Series[key]); got != n {
					t.Errorf("series %q has %d points, want %d", key, got, n)
				}
			}
		}
	}
}

// TestDispatchPoliciesPreserveFigureShape: the a6 policies must not
// break the FTL invariants the other experiments rely on. a6 itself
// covers conventional and PPB under every policy, so this test runs the
// two strategies a6 skips (the strawman and the separation-only
// ablation) under the policy with the most FTL coupling — hot/cold
// affinity reads the pool hotness every constructor declares.
func TestDispatchPoliciesPreserveFigureShape(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	specs := []RunSpec{
		{Name: "dp/affinity/greedy", Kind: KindGreedySpeed, FTLOptions: ftl.Options{Dispatch: vblock.HotColdAffinity}},
		{Name: "dp/affinity/split", Kind: KindHotColdSplit, FTLOptions: ftl.Options{Dispatch: vblock.HotColdAffinity}},
		{Name: "dp/ll/greedy", Kind: KindGreedySpeed, FTLOptions: ftl.Options{Dispatch: vblock.LeastLoaded}},
		{Name: "dp/ll/split", Kind: KindHotColdSplit, FTLOptions: ftl.Options{Dispatch: vblock.LeastLoaded}},
	}
	for i := range specs {
		specs[i].Device = dev
		specs[i].Workload = testScale.WebSQLWorkload()
		specs[i].Prefill = true
		specs[i].QueueDepth = 8
	}
	results, err := RunAll(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.HostWritePage == 0 || res.HostReadPages == 0 {
			t.Errorf("%s: no host activity", specs[i].Name)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: zero makespan", specs[i].Name)
		}
	}
}
