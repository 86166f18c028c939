package harness

import (
	"testing"
	"time"

	"ppbflash/internal/ftl"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// TestCausalSweepShape asserts the headline claims of experiment a7 on
// websql at queue depth 8 (>= 4, where reads actually queue behind GC
// erases):
//
//   - erase deferral never changes what GC does, only when it is
//     booked: under the timing-independent striped placement the total
//     erase count is identical with and without deferral;
//   - erase deferral reduces the read p99 tail at striped placement
//     (aggregate over conventional and PPB) — the multi-millisecond
//     erases leave the read path — while strictly improving makespan at
//     every dispatch policy.
func TestCausalSweepShape(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy single-threaded sweep; skipped under -race (see race_on_test.go)")
	}
	fig, err := causalSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(dispatchPolicies)
	series := func(key string) []float64 {
		t.Helper()
		s, ok := fig.Series[key]
		if !ok || len(s) != n {
			t.Fatalf("series %q has %d points, want %d", key, len(s), n)
		}
		return s
	}
	const striped = 0 // dispatchPolicies[0]: the timing-independent policy

	// Erase parity at striped: defer-off and defer-on run the identical
	// op stream, so per-FTL erase totals must match.
	for _, kind := range []string{"conv", "ppb"} {
		off := series("defer-off/erases/" + kind)[striped]
		if on := series("defer-on/erases/" + kind)[striped]; on != off {
			t.Errorf("defer-on/erases/%s striped = %.0f, defer-off %.0f (scheduling must not change GC)", kind, on, off)
		}
	}

	// Erase deferral: read p99 falls at striped (aggregate over both
	// FTLs, strictly), and makespan falls at every policy for both FTLs.
	var offSum, onSum float64
	for _, kind := range []string{"conv", "ppb"} {
		offSum += series("defer-off/readp99/" + kind)[striped]
		onSum += series("defer-on/readp99/" + kind)[striped]
		off := series("defer-off/makespan/" + kind)
		on := series("defer-on/makespan/" + kind)
		for i, policy := range dispatchPolicies {
			if on[i] >= off[i] {
				t.Errorf("%s/%s: deferred-erase makespan %.3fs not below %.3fs", kind, policy, on[i], off[i])
			}
		}
	}
	if onSum >= offSum {
		t.Errorf("striped read p99 aggregate with deferral %.4fs not below %.4fs without", onSum, offSum)
	}

	// Every combo produces a full series — no silent holes in the sweep.
	for _, mode := range causalDeferModes {
		for _, metric := range []string{"makespan", "readp99", "erases"} {
			for _, kind := range []string{"conv", "ppb"} {
				series(mode.name + "/" + metric + "/" + kind)
			}
		}
		series(mode.name + "/writep99/ppb")
	}
}

// TestDeadlineCommitsReachClockAwareDispatch pins the deferred-erase
// deadline commits that the device books in AdvanceTo. A deadline
// commit books a parked erase on its chip once the clock passes the
// deadline, which moves the chip clock that least-loaded dispatch reads
// when it places the next fresh block. Without it the erase stays parked
// until the device's op-time scan finds it, at the next operation on
// that chip, and allocations in between see the chip as idle; the
// replay then differs (at 4 chips this scenario does not reach that
// feedback, at 8 it does). The constants are the Result of the replay
// whose events committed each deadline, recorded before the commits
// moved into the device; dropping the commits gave 2m18.420123532s and
// 1043 erases.
func TestDeadlineCommitsReachClockAwareDispatch(t *testing.T) {
	cfg := trimToChipMultiple(testScale.DeviceConfig(16<<10, 2), 8).WithChips(8)
	spec := RunSpec{Kind: KindConventional, FTLOptions: ftl.Options{Dispatch: vblock.LeastLoaded, DeferErases: true}}
	dev := nand.MustNewDevice(cfg)
	f, err := buildFTL(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefill(f); err != nil {
		t.Fatal(err)
	}
	dev.ResetClocks()
	m := NewReplayMetrics()
	if err := ReplayQueued(f, testScale.WebSQLWorkload()(f.LogicalPages()*uint64(cfg.PageSize)), m, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	const (
		wantMakespan = 2*time.Minute + 19195718995*time.Nanosecond
		wantErases   = 1041
	)
	if dev.Makespan() != wantMakespan || dev.TotalErases() != wantErases {
		t.Errorf("makespan %v with %d erases, want %v with %d", dev.Makespan(), dev.TotalErases(), wantMakespan, wantErases)
	}
	for _, h := range []struct {
		name  string
		got   *metrics.Histogram
		count uint64
		sum   time.Duration
	}{
		{"read", m.ReadLatency, 140599, 6146169708},
		{"write", m.WriteLatency, 93703, 133047087530},
		{"queue delay", m.QueueDelay, 234302, 491253680},
	} {
		if h.got.Count() != h.count || h.got.Sum() != h.sum {
			t.Errorf("%s latency: %d samples summing to %v, want %d summing to %v",
				h.name, h.got.Count(), h.got.Sum(), h.count, h.sum)
		}
	}
}
