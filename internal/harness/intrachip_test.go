package harness

import (
	"fmt"
	"testing"
)

// TestIntraChipSweepShape asserts the headline claims of experiment a8
// on websql at queue depth 8:
//
//   - intra-chip knobs never change what GC does, only when it is
//     booked: under the timing-independent striped placement the total
//     erase count is identical across every plane count x suspend mode;
//   - erase suspension actually fires (suspends > 0) whenever the
//     policy is on and never when it is off;
//   - with suspension on, read p99 is no worse than suspend-off at
//     every plane count (a read preempts an in-flight erase only when
//     that starts it earlier than waiting would);
//   - plane overlap shrinks the makespan: the 4-plane device drains no
//     later than the serial-chip baseline.
func TestIntraChipSweepShape(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy single-threaded sweep; skipped under -race (see race_on_test.go)")
	}
	fig, err := IntraChipSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	point := func(key string) float64 {
		t.Helper()
		s, ok := fig.Series[key]
		if !ok || len(s) != 1 {
			t.Fatalf("series %q has %d points, want 1", key, len(s))
		}
		return s[0]
	}

	// Erase parity: planes and suspension move only time, never data,
	// so per-FTL erase totals must match across every cell.
	for _, kind := range []string{"conv", "ppb"} {
		want := point(fmt.Sprintf("p%d/off/erases/%s", IntraChipPlaneCounts[0], kind))
		for _, planes := range IntraChipPlaneCounts {
			for _, susp := range IntraChipSuspendModes {
				key := fmt.Sprintf("p%d/%s/erases/%s", planes, susp, kind)
				if got := point(key); got != want {
					t.Errorf("%s erases = %.0f, want %.0f (intra-chip knobs must not change GC)", key, got, want)
				}
			}
		}
	}

	// Suspension fires iff the policy is on.
	for _, kind := range []string{"conv", "ppb"} {
		for _, planes := range IntraChipPlaneCounts {
			off := point(fmt.Sprintf("p%d/off/suspends/%s", planes, kind))
			on := point(fmt.Sprintf("p%d/erase/suspends/%s", planes, kind))
			if off != 0 {
				t.Errorf("p%d/%s: %v suspends with the policy off, want 0", planes, kind, off)
			}
			if on <= 0 {
				t.Errorf("p%d/%s: no suspensions with the policy on — the preemption path never ran", planes, kind)
			}
		}
	}

	// Suspension is a pure read-tail optimization: read p99 with the
	// policy on never exceeds suspend-off at any plane count.
	for _, kind := range []string{"conv", "ppb"} {
		for _, planes := range IntraChipPlaneCounts {
			off := point(fmt.Sprintf("p%d/off/readp99/%s", planes, kind))
			on := point(fmt.Sprintf("p%d/erase/readp99/%s", planes, kind))
			if on > off {
				t.Errorf("p%d/%s: suspend-on read p99 %.5fs above suspend-off %.5fs", planes, kind, on, off)
			}
		}
	}

	// Multi-plane overlap never lengthens the timeline.
	for _, kind := range []string{"conv", "ppb"} {
		serial := point("p1/off/makespan/" + kind)
		wide := point(fmt.Sprintf("p%d/off/makespan/%s", IntraChipPlaneCounts[len(IntraChipPlaneCounts)-1], kind))
		if wide > serial {
			t.Errorf("%s: 4-plane makespan %.3fs above serial-chip %.3fs", kind, wide, serial)
		}
	}

	// Every combo produces a full series — no silent holes in the sweep.
	for _, planes := range IntraChipPlaneCounts {
		for _, susp := range IntraChipSuspendModes {
			for _, metric := range []string{"makespan", "readp99", "suspends", "erases"} {
				for _, kind := range []string{"conv", "ppb"} {
					point(fmt.Sprintf("p%d/%s/%s/%s", planes, susp, metric, kind))
				}
			}
		}
	}
}

// TestPlanesOffBitIdentity: a reorder window configured on a
// single-plane device is inert — the ftl layer only installs it when
// the geometry has planes, and the device only consults it on
// multi-plane chips — so results must be bit-identical to the
// untouched baseline. This is the harness end of the plane ladder
// (planes=1 ≡ no planes); the device end (planes > 1 with window 0
// serializes identically) is pinned in nand's intrachip tests.
func TestPlanesOffBitIdentity(t *testing.T) {
	base := RunSpec{
		Name: "planes/base", Device: testScale.DeviceConfig(16<<10, 2).WithChips(4),
		Kind: KindPPB, Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 4,
	}
	def, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	windowed := base
	windowed.Name = "planes/windowed"
	windowed.FTLOptions.ReorderWindow = base.Device.EraseLatency
	res, err := Run(windowed)
	if err != nil {
		t.Fatal(err)
	}
	res.Name = def.Name
	if res.Canonical() != def.Canonical() {
		t.Errorf("single-plane run with a reorder window differs from baseline:\n got %+v\nwant %+v", res, def)
	}
}
