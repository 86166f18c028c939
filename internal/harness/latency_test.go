package harness

import (
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
)

// TestMakespanSerialEqualsCostTotals pins the Chips=1 contract: with one
// chip the service model degenerates to serial cost accounting, so the
// simulated makespan is exactly the read+write(+GC) cost total the
// figures have always reported.
func TestMakespanSerialEqualsCostTotals(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	for _, kind := range []FTLKind{KindConventional, KindPPB} {
		res, err := Run(RunSpec{
			Name: "serial/" + string(kind), Device: dev, Kind: kind,
			Workload: testScale.WebSQLWorkload(), Prefill: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := res.ReadTotal + res.WriteTotal; res.Makespan != want {
			t.Errorf("%s: makespan %v != read+write totals %v", kind, res.Makespan, want)
		}
	}
}

// TestResultLatencyPercentiles checks that measured replay populates
// ordered, non-zero percentiles.
func TestResultLatencyPercentiles(t *testing.T) {
	res, err := Run(RunSpec{
		Name: "lat", Device: testScale.DeviceConfig(16<<10, 2), Kind: KindConventional,
		Workload: testScale.WebSQLWorkload(), Prefill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadP50 <= 0 || res.WriteP50 <= 0 {
		t.Fatalf("zero medians: read %v write %v", res.ReadP50, res.WriteP50)
	}
	if res.ReadP50 > res.ReadP95 || res.ReadP95 > res.ReadP99 {
		t.Errorf("read percentiles not ordered: %v/%v/%v", res.ReadP50, res.ReadP95, res.ReadP99)
	}
	if res.WriteP50 > res.WriteP95 || res.WriteP95 > res.WriteP99 {
		t.Errorf("write percentiles not ordered: %v/%v/%v", res.WriteP50, res.WriteP95, res.WriteP99)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan recorded")
	}
	// Write tails absorb GC bursts, so the write p99 must dominate the
	// single-page read median.
	if res.WriteP99 < res.ReadP50 {
		t.Errorf("write p99 %v below read p50 %v", res.WriteP99, res.ReadP50)
	}
}

// TestErasesExcludePrePlayWork is the regression test for Result.Erases
// counting erase cycles from before the measured window: Run resets the
// FTL stats after prefill, but the device's erase counter kept counting,
// and collect used to report it wholesale.
func TestErasesExcludePrePlayWork(t *testing.T) {
	spec := RunSpec{Name: "erases", Device: testScale.DeviceConfig(16<<10, 2), Kind: KindConventional}
	dev, err := nand.NewDevice(spec.Device)
	if err != nil {
		t.Fatal(err)
	}
	f, err := buildFTL(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Emulate Run's prefill phase, then force pre-measurement garbage
	// collection the way a churning prefill would: rewriting a slice of
	// the space invalidates pages until GC must erase.
	if err := prefill(f); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4 && dev.TotalErases() == 0; round++ {
		for lpn := uint64(0); lpn < f.LogicalPages()/2; lpn++ {
			if err := f.Write(lpn, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dev.TotalErases() == 0 {
		t.Fatal("setup failed to force pre-measurement erases")
	}
	*f.Stats() = ftl.Stats{}
	dev.ResetClocks()
	eraseBase := dev.TotalErases()

	// Measured window: a handful of reads that erase nothing.
	gen := testScale.WebSQLWorkload()(f.LogicalPages() * uint64(spec.Device.PageSize))
	var reads []trace.Request
	for i := 0; i < 100; i++ {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if r.Op == trace.OpRead { // writes could legitimately erase; replay reads only
			reads = append(reads, r)
		}
	}
	rm := NewReplayMetrics()
	if err := ReplayQueued(f, trace.NewSliceStream(reads), rm, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	res := collect(spec, f, eraseBase, nand.ReliabilityStats{}, 0, 0, 0, rm)
	if res.Erases != 0 {
		t.Errorf("read-only window reported %d erases (pre-window count %d leaked in)",
			res.Erases, eraseBase)
	}
	if got := f.Stats().GCErases.Value(); res.Erases != got {
		t.Errorf("Result.Erases %d disagrees with measured GC erases %d", res.Erases, got)
	}
}

// TestUnmappedReadsNotObservedAsLatency: a read of never-written LPNs
// performs no device operation, so it must not record a 0-latency sample
// (which would drag percentiles toward zero on non-prefilled replays).
func TestUnmappedReadsNotObservedAsLatency(t *testing.T) {
	spec := RunSpec{Name: "unmapped", Device: testScale.DeviceConfig(16<<10, 2), Kind: KindConventional}
	dev, err := nand.NewDevice(spec.Device)
	if err != nil {
		t.Fatal(err)
	}
	f, err := buildFTL(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	rm := NewReplayMetrics()
	replay := func(reqs ...trace.Request) {
		t.Helper()
		if err := ReplayQueued(f, trace.NewSliceStream(reqs), rm, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	read := trace.Request{Op: trace.OpRead, Offset: 0, Size: 16384}
	replay(read)
	if got := rm.ReadLatency.Count(); got != 0 {
		t.Errorf("unmapped read recorded %d latency samples", got)
	}
	// Once the page is written, both the write and the re-read count.
	write := trace.Request{Op: trace.OpWrite, Offset: 0, Size: 16384}
	replay(write, read)
	if rm.WriteLatency.Count() != 1 || rm.ReadLatency.Count() != 1 {
		t.Errorf("mapped ops not observed: reads=%d writes=%d",
			rm.ReadLatency.Count(), rm.WriteLatency.Count())
	}
	if rm.ReadLatency.Min() <= 0 {
		t.Errorf("mapped read latency %v not positive", rm.ReadLatency.Min())
	}
}

// TestMultiChipRunsDeterministicUnderRunAll: per-chip clocks are per-run
// state, so multi-chip results must be identical at any RunAll
// parallelism.
func TestMultiChipRunsDeterministicUnderRunAll(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2).WithChips(4)
	specs := []RunSpec{
		{Name: "mc/conv", Device: dev, Kind: KindConventional, Workload: testScale.WebSQLWorkload(), Prefill: true},
		{Name: "mc/ppb", Device: dev, Kind: KindPPB, Workload: testScale.WebSQLWorkload(), Prefill: true},
		{Name: "mc/media", Device: dev, Kind: KindPPB, Workload: testScale.MediaWorkload(), Prefill: true},
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
		if parallel[i].Canonical() != seq.Canonical() {
			t.Errorf("spec %d (%s): parallel %+v != sequential %+v", i, spec.Name, parallel[i], seq)
		}
	}
}

// TestChipSweepMakespanDecreases asserts the headline property of
// experiment a4: spreading the same capacity over more chips shrinks the
// simulated makespan for both FTLs on both traces.
func TestChipSweepMakespanDecreases(t *testing.T) {
	fig, err := ChipSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ChipSweepCounts)
	for _, tr := range paperTraces {
		for _, series := range []string{tr + "/makespan/conv", tr + "/makespan/ppb"} {
			vals := fig.Series[series]
			if len(vals) != n {
				t.Fatalf("%s: %d points, want %d", series, len(vals), n)
			}
			for i := 1; i < n; i++ {
				if vals[i] >= vals[i-1] {
					t.Errorf("%s: makespan %v at %d chips not below %v at %d chips",
						series, vals[i], ChipSweepCounts[i], vals[i-1], ChipSweepCounts[i-1])
				}
			}
		}
		p99s := fig.Series[tr+"/readp99/ppb"]
		for i, v := range p99s {
			if v <= 0 {
				t.Errorf("%s: read p99 missing at %d chips", tr, ChipSweepCounts[i])
			}
		}
	}
}
