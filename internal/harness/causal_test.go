package harness

import (
	"sort"
	"testing"
	"time"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
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

// deadlineReplay is ReplayQueued's closed loop at queue depth 1 with the
// deferred-erase deadline events spelled out: before each request
// issues, the erases parked with a deadline at or before the issue time
// commit in deadline order, the way the event heap pops their deadline
// events ahead of the issue event. With commitDue false the loop never
// commits at a deadline, leaving each parked erase to the device's
// op-time scan — the replay as it would run without deadline events.
func deadlineReplay(f ftl.FTL, src trace.Stream, m *ReplayMetrics, commitDue bool) error {
	dev := f.Device()
	pageSize := dev.Config().PageSize
	type deadline struct {
		chip int
		at   time.Duration
	}
	var parked []deadline
	if commitDue {
		dev.SetDeferralNotify(func(chip int, at time.Duration) {
			parked = append(parked, deadline{chip, at})
		})
		defer dev.SetDeferralNotify(nil)
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		issue := dev.Now()
		sort.SliceStable(parked, func(i, j int) bool { return parked[i].at < parked[j].at })
		due := 0
		for due < len(parked) && parked[due].at <= issue {
			dev.CommitDeferredDeadline(parked[due].chip, parked[due].at)
			due++
		}
		parked = parked[due:]
		dev.BeginBurst()
		if err := issueRequest(f, r, pageSize); err != nil {
			return err
		}
		if dev.BurstOps() > 0 {
			fin := dev.BurstFinish()
			m.observe(r.Op, r.Tenant, fin-issue, dev.BurstStart()-issue)
			dev.AdvanceTo(fin)
		}
	}
	dev.FlushDeferredErases()
	return nil
}

// TestDeadlineCommitsReachClockAwareDispatch pins ReplayQueued's
// deferred-erase deadline events. A deadline commit books a parked erase
// on its chip once the deadline passes, which moves the chip clock that
// least-loaded dispatch reads when it places the next fresh block.
// Without the event the erase stays parked until the device's op-time
// scan finds it, at the next operation on that chip, and allocations in
// between see the chip as idle. The two commit paths book an erase
// identically only for a fixed op sequence; once the chip clocks feed
// back into placement, they produce different runs. ReplayQueued must
// match the loop that commits at each deadline exactly, and the loop
// that does not must differ — otherwise this scenario would not reach
// the feedback at all.
func TestDeadlineCommitsReachClockAwareDispatch(t *testing.T) {
	// 8 chips: at 4 the two loops happen to produce the same run.
	cfg := trimToChipMultiple(testScale.DeviceConfig(16<<10, 2), 8).WithChips(8)
	spec := RunSpec{Kind: KindConventional, FTLOptions: ftl.Options{Dispatch: vblock.LeastLoaded, DeferErases: true}}
	replay := func(name string, run func(ftl.FTL, trace.Stream, *ReplayMetrics) error) (*nand.Device, *ReplayMetrics) {
		t.Helper()
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
		if err := run(f, testScale.WebSQLWorkload()(f.LogicalPages()*uint64(cfg.PageSize)), m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return dev, m
	}
	queued, qm := replay("ReplayQueued", func(f ftl.FTL, src trace.Stream, m *ReplayMetrics) error {
		return ReplayQueued(f, src, m, ReplayOptions{})
	})
	ref, rm := replay("deadline commits", func(f ftl.FTL, src trace.Stream, m *ReplayMetrics) error {
		return deadlineReplay(f, src, m, true)
	})
	scan, _ := replay("op-time scan only", func(f ftl.FTL, src trace.Stream, m *ReplayMetrics) error {
		return deadlineReplay(f, src, m, false)
	})

	if queued.Makespan() != ref.Makespan() || queued.TotalErases() != ref.TotalErases() {
		t.Errorf("ReplayQueued makespan %v with %d erases, deadline-commit loop %v with %d",
			queued.Makespan(), queued.TotalErases(), ref.Makespan(), ref.TotalErases())
	}
	histogramsEqual(t, "read", qm.ReadLatency, rm.ReadLatency)
	histogramsEqual(t, "write", qm.WriteLatency, rm.WriteLatency)
	histogramsEqual(t, "queue delay", qm.QueueDelay, rm.QueueDelay)
	if scan.Makespan() == ref.Makespan() && scan.TotalErases() == ref.TotalErases() {
		t.Errorf("skipping deadline commits changed nothing (makespan %v, %d erases): the scenario no longer exercises clock-aware placement",
			scan.Makespan(), scan.TotalErases())
	}
}
