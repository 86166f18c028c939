package harness

import (
	"reflect"
	"testing"
	"time"

	"ppbflash/internal/ftl"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// classicReplay is the pre-queueing measured replay, verbatim: issue at
// the device clock, detect device work through the op counters, complete
// at the global makespan, advance the clock there. The queue-depth-1
// equivalence test replays through both this and ReplayQueued and demands
// identical measurements.
func classicReplay(f ftl.FTL, gen workload.Generator, m *ReplayMetrics) error {
	dev := f.Device()
	pageSize := dev.Config().PageSize
	for {
		r, ok := gen.Next()
		if !ok {
			return nil
		}
		issue := dev.Now()
		st := dev.Stats()
		opsBefore := st.Reads.Value() + st.Programs.Value() + st.Erases.Value()
		if err := issueRequest(f, r, pageSize); err != nil {
			return err
		}
		if st.Reads.Value()+st.Programs.Value()+st.Erases.Value() != opsBefore {
			fin := dev.Makespan()
			if r.Op == trace.OpWrite {
				m.WriteLatency.Observe(fin - issue)
			} else {
				m.ReadLatency.Observe(fin - issue)
			}
			dev.AdvanceTo(fin)
		}
	}
}

func buildQueueTestFTL(t *testing.T, cfg nand.Config, kind FTLKind) ftl.FTL {
	t.Helper()
	dev, err := nand.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := buildFTL(RunSpec{Kind: kind}, dev)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// histogramsEqual requires two histograms to hold the same samples:
// equal bounds, bucket counts, count, sum and extremes.
func histogramsEqual(t *testing.T, name string, a, b *metrics.Histogram) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: histograms differ: count/sum %d/%v vs %d/%v", name, a.Count(), a.Sum(), b.Count(), b.Sum())
	}
}

// TestQueueDepthOneMatchesClassicReplay: the event loop at queue depth 1
// must be bit-identical to the pre-queueing closed loop — same latency
// samples, same makespan, same final host clock — on a multi-chip device
// where the two formulations (per-burst finish vs global makespan) could
// plausibly diverge.
func TestQueueDepthOneMatchesClassicReplay(t *testing.T) {
	cfg := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	for _, kind := range []FTLKind{KindConventional, KindPPB} {
		fClassic := buildQueueTestFTL(t, cfg, kind)
		fQueued := buildQueueTestFTL(t, cfg, kind)
		logical := fClassic.LogicalPages() * uint64(cfg.PageSize)

		mClassic := NewReplayMetrics()
		if err := classicReplay(fClassic, testScale.WebSQLWorkload()(logical), mClassic); err != nil {
			t.Fatal(err)
		}
		mQueued := NewReplayMetrics()
		if err := ReplayQueued(fQueued, testScale.WebSQLWorkload()(logical), mQueued, ReplayOptions{QueueDepth: 1}); err != nil {
			t.Fatal(err)
		}

		histogramsEqual(t, string(kind)+"/read", mClassic.ReadLatency, mQueued.ReadLatency)
		histogramsEqual(t, string(kind)+"/write", mClassic.WriteLatency, mQueued.WriteLatency)
		if a, b := fClassic.Device().Makespan(), fQueued.Device().Makespan(); a != b {
			t.Errorf("%s: makespan %v != %v", kind, a, b)
		}
		if a, b := fClassic.Device().Now(), fQueued.Device().Now(); a != b {
			t.Errorf("%s: final host clock %v != %v", kind, a, b)
		}
		// Queue depth 1 never queues: every recorded delay is exactly zero.
		if max := mQueued.QueueDelay.Max(); max != 0 {
			t.Errorf("%s: QD1 queue delay max = %v, want 0", kind, max)
		}
		if got, want := mQueued.QueueDelay.Count(), mQueued.ReadLatency.Count()+mQueued.WriteLatency.Count(); got != want {
			t.Errorf("%s: queue delay samples %d != completed requests %d", kind, got, want)
		}
	}
}

// TestMakespanMonotoneInQueueDepth: deeper host queues can only add
// overlap, never serialize more — makespan must be non-increasing in QD,
// and strictly below the QD=1 makespan once the depth covers the chips.
func TestMakespanMonotoneInQueueDepth(t *testing.T) {
	cfg := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	depths := []int{1, 4, 16}
	results := make([]Result, len(depths))
	for i, qd := range depths {
		res, err := Run(RunSpec{
			Name: "mono", Device: cfg, Kind: KindConventional,
			Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: qd,
		})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
		if i > 0 {
			prev := results[i-1]
			if res.Makespan > prev.Makespan {
				t.Errorf("makespan grew with queue depth: QD%d %v > QD%d %v", qd, res.Makespan, depths[i-1], prev.Makespan)
			}
			if res.QueueDelayP99 < prev.QueueDelayP99 {
				t.Errorf("queue delay p99 shrank with queue depth: QD%d %v < QD%d %v",
					qd, res.QueueDelayP99, depths[i-1], prev.QueueDelayP99)
			}
		}
	}
	if results[0].QueueDelayP99 != 0 {
		t.Errorf("QD1 queue delay p99 = %v, want 0", results[0].QueueDelayP99)
	}
	last := results[len(results)-1]
	if last.QueueDelayP99 <= 0 {
		t.Errorf("QD16 queue delay p99 = %v, want positive", last.QueueDelayP99)
	}
	if last.Makespan >= results[0].Makespan {
		t.Errorf("QD16 makespan %v not strictly below QD1 %v", last.Makespan, results[0].Makespan)
	}
}

// TestOpenLoopReplay measures arrival-gated replay on a hand-built trace
// with exact expectations: latency from arrival, queueing delay for a
// request that arrives while the single queue slot is busy, none for a
// request that arrives after the device drained.
func TestOpenLoopReplay(t *testing.T) {
	cfg := testScale.DeviceConfig(16<<10, 2)
	f := buildQueueTestFTL(t, cfg, KindConventional)
	ps := uint64(cfg.PageSize)
	reqs := []trace.Request{
		{Time: 0, Op: trace.OpWrite, Offset: 0, Size: uint32(ps)},        // page 0 of the active block
		{Time: 0, Op: trace.OpWrite, Offset: ps, Size: uint32(ps)},       // arrives with the slot busy
		{Time: time.Hour, Op: trace.OpRead, Offset: 0, Size: uint32(ps)}, // long after the drain
	}
	i := 0
	gen := &workload.Func{WorkloadName: "openloop", Bytes: 4 * ps, NextFunc: func() (trace.Request, bool) {
		if i >= len(reqs) {
			return trace.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}}
	m := NewReplayMetrics()
	if err := ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: 1, OpenLoop: true}); err != nil {
		t.Fatal(err)
	}

	costA := cfg.ProgramCost(0)
	costB := cfg.ProgramCost(1)
	readCost := cfg.ReadCost(0)
	if got, want := m.WriteLatency.Sum(), costA+(costA+costB); got != want {
		t.Errorf("write latency sum = %v, want %v (first %v, queued second %v)", got, want, costA, costA+costB)
	}
	if got := m.ReadLatency.Sum(); got != readCost {
		t.Errorf("read latency = %v, want bare read cost %v (no queueing after drain)", got, readCost)
	}
	// Queue delays: 0 for the first write, costA for the second (it waited
	// for the slot), 0 for the late read.
	if got := m.QueueDelay.Sum(); got != costA {
		t.Errorf("queue delay sum = %v, want %v", got, costA)
	}
	if got := m.QueueDelay.Max(); got != costA {
		t.Errorf("queue delay max = %v, want %v", got, costA)
	}
	if got := m.QueueDelay.Count(); got != 3 {
		t.Errorf("queue delay samples = %d, want 3", got)
	}
	// The host clock gated on the last arrival, so the device is idle
	// until the read's arrival and the makespan lands at arrival+read.
	if got, want := f.Device().Makespan(), time.Hour+readCost; got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
}

// TestOpenLoopZeroTimeRequestObserved is the harness end of the burst
// validity fix: the very first open-loop request arrives at t=0, its
// burst starts at the real timestamp 0, and it must be recorded as a
// completed request with an exact-zero queueing delay — not dropped as
// an empty burst because its start collides with the zero sentinel.
func TestOpenLoopZeroTimeRequestObserved(t *testing.T) {
	cfg := testScale.DeviceConfig(16<<10, 2)
	f := buildQueueTestFTL(t, cfg, KindConventional)
	ps := uint64(cfg.PageSize)
	sent := false
	gen := &workload.Func{WorkloadName: "zerotime", Bytes: 4 * ps, NextFunc: func() (trace.Request, bool) {
		if sent {
			return trace.Request{}, false
		}
		sent = true
		return trace.Request{Time: 0, Op: trace.OpWrite, Offset: 0, Size: uint32(ps)}, true
	}}
	m := NewReplayMetrics()
	if err := ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: 1, OpenLoop: true}); err != nil {
		t.Fatal(err)
	}
	if got := m.WriteLatency.Count(); got != 1 {
		t.Fatalf("t=0 request recorded %d latency samples, want 1", got)
	}
	if got, want := m.WriteLatency.Sum(), cfg.ProgramCost(0); got != want {
		t.Errorf("t=0 request latency = %v, want bare program cost %v", got, want)
	}
	if got := m.QueueDelay.Count(); got != 1 {
		t.Errorf("t=0 request recorded %d queue-delay samples, want 1", got)
	}
	if got := m.QueueDelay.Sum(); got != 0 {
		t.Errorf("t=0 request queue delay = %v, want exact zero", got)
	}
}

// TestOpenLoopClampsNonMonotonicArrivals: a generator emitting an
// out-of-order arrival must not move the open-loop clock backwards or
// produce negative latencies.
func TestOpenLoopClampsNonMonotonicArrivals(t *testing.T) {
	cfg := testScale.DeviceConfig(16<<10, 2)
	f := buildQueueTestFTL(t, cfg, KindConventional)
	ps := uint64(cfg.PageSize)
	reqs := []trace.Request{
		{Time: time.Second, Op: trace.OpWrite, Offset: 0, Size: uint32(ps)},
		{Time: time.Millisecond, Op: trace.OpWrite, Offset: ps, Size: uint32(ps)}, // backwards
	}
	i := 0
	gen := &workload.Func{WorkloadName: "clamp", Bytes: 4 * ps, NextFunc: func() (trace.Request, bool) {
		if i >= len(reqs) {
			return trace.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}}
	m := NewReplayMetrics()
	if err := ReplayQueued(f, gen, m, ReplayOptions{QueueDepth: 4, OpenLoop: true}); err != nil {
		t.Fatal(err)
	}
	if m.WriteLatency.Min() <= 0 {
		t.Errorf("negative or zero latency recorded: min %v", m.WriteLatency.Min())
	}
	// The second request is clamped to the first's arrival, so it queues
	// behind the first program on the single chip.
	if got, want := m.QueueDelay.Max(), cfg.ProgramCost(0); got != want {
		t.Errorf("clamped request queue delay = %v, want %v", got, want)
	}
}

// TestRunAllMarksSkippedRuns: a failing spec must not leave silent
// all-zero rows for the runs the fail-fast skipped — every unfinished
// row carries Skipped (and its spec's name), every finished row does not.
func TestRunAllMarksSkippedRuns(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	wl := testScale.WebSQLWorkload()
	specs := []RunSpec{
		{Name: "s/ok0", Device: dev, Kind: KindConventional, Workload: wl},
		{Name: "s/bad", Device: dev, Kind: "nope", Workload: wl},
		{Name: "s/ok1", Device: dev, Kind: KindConventional, Workload: wl},
		{Name: "s/ok2", Device: dev, Kind: KindConventional, Workload: wl},
	}
	for _, parallelism := range []int{1, 2} {
		results, err := RunAll(specs, parallelism)
		if err == nil {
			t.Fatalf("parallelism %d: bad spec did not surface an error", parallelism)
		}
		if len(results) != len(specs) {
			t.Fatalf("parallelism %d: %d results for %d specs", parallelism, len(results), len(specs))
		}
		if !results[1].Skipped {
			t.Errorf("parallelism %d: failed run not marked skipped", parallelism)
		}
		for i, res := range results {
			if res.Name != specs[i].Name {
				t.Errorf("parallelism %d: row %d named %q, want %q", parallelism, i, res.Name, specs[i].Name)
			}
			if res.Skipped {
				if res.HostWritePage != 0 || res.Makespan != 0 {
					t.Errorf("parallelism %d: skipped row %d carries measurements: %+v", parallelism, i, res)
				}
			} else if res.HostWritePage == 0 {
				t.Errorf("parallelism %d: row %d not skipped but has no measurements", parallelism, i)
			}
		}
	}
	// The sequential path stops at the failure: everything after it is
	// skipped, everything before it is real.
	results, _ := RunAll(specs, 1)
	if results[0].Skipped || !results[2].Skipped || !results[3].Skipped {
		t.Errorf("sequential skip pattern = %v/%v/%v/%v, want real/skip/skip/skip",
			results[0].Skipped, results[1].Skipped, results[2].Skipped, results[3].Skipped)
	}
}

// TestQueuedRunsDeterministicUnderRunAll: the queueing event loop keeps
// all its state (completion heap, burst window, chip clocks) per run, so
// deep-queue and open-loop results must be identical at any RunAll
// parallelism. Run under -race in CI, this doubles as the race test of
// the event loop.
func TestQueuedRunsDeterministicUnderRunAll(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	specs := []RunSpec{
		{Name: "q/conv16", Device: dev, Kind: KindConventional, Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 16},
		{Name: "q/ppb16", Device: dev, Kind: KindPPB, Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 16},
		{Name: "q/open8", Device: dev, Kind: KindConventional, Workload: testScale.MediaWorkload(), Prefill: true, QueueDepth: 8, OpenLoop: true},
	}
	parallel, err := RunAll(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		seq, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if parallel[i] != seq {
			t.Errorf("spec %d (%s): parallel %+v != sequential %+v", i, spec.Name, parallel[i], seq)
		}
	}
}

// TestQDSweepShape asserts the headline properties of experiment a5:
// makespan non-increasing in queue depth (strictly lower by QD 16), and
// queueing-delay percentiles that start at exactly zero and grow with
// the depth.
func TestQDSweepShape(t *testing.T) {
	fig, err := qdSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(qdSweepDepths)
	qd16 := -1
	for i, qd := range qdSweepDepths {
		if qd == 16 {
			qd16 = i
		}
	}
	if qd16 < 0 {
		t.Fatal("sweep no longer includes QD 16")
	}
	for _, pt := range paperTraces {
		tr := pt.name
		for _, series := range []string{tr + "/makespan/conv", tr + "/makespan/ppb"} {
			vals := fig.Series[series]
			if len(vals) != n {
				t.Fatalf("%s: %d points, want %d", series, len(vals), n)
			}
			for i := 1; i < n; i++ {
				if vals[i] > vals[i-1] {
					t.Errorf("%s: makespan %v at QD%d above %v at QD%d",
						series, vals[i], qdSweepDepths[i], vals[i-1], qdSweepDepths[i-1])
				}
			}
			if vals[qd16] >= vals[0] {
				t.Errorf("%s: QD16 makespan %v not strictly below QD1 %v", series, vals[qd16], vals[0])
			}
		}
		for _, series := range []string{tr + "/qdelayp99/conv", tr + "/qdelayp99/ppb"} {
			vals := fig.Series[series]
			if len(vals) != n {
				t.Fatalf("%s: %d points, want %d", series, len(vals), n)
			}
			if vals[0] != 0 {
				t.Errorf("%s: QD1 queue delay p99 = %v, want exact zero", series, vals[0])
			}
			for i := 1; i < n; i++ {
				if vals[i] < vals[i-1] {
					t.Errorf("%s: queue delay p99 %v at QD%d below %v at QD%d",
						series, vals[i], qdSweepDepths[i], vals[i-1], qdSweepDepths[i-1])
				}
			}
			if vals[n-1] <= 0 {
				t.Errorf("%s: deepest queue delay p99 = %v, want positive", series, vals[n-1])
			}
		}
	}
}
