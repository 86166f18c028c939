package harness

import (
	"regexp"
	"strings"
	"testing"

	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// testScale is small enough for CI but large enough for GC steady state
// (512 MB-class device; much smaller and every strategy starts thrashing
// because over-provisioning slack shrinks below the working pipelines).
var testScale = Scale{DeviceDivisor: 128, WriteTurnover: 1.5, Seed: 7}

func TestScaleValidate(t *testing.T) {
	if err := (Scale{DeviceDivisor: 0, WriteTurnover: 1}).Validate(); err == nil {
		t.Error("zero divisor accepted")
	}
	if err := (Scale{DeviceDivisor: 1, WriteTurnover: 0}).Validate(); err == nil {
		t.Error("zero turnover accepted")
	}
	for _, s := range []Scale{QuickScale, BenchScale, PaperScale} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset invalid: %+v: %v", s, err)
		}
	}
}

func TestScaleDeviceConfig(t *testing.T) {
	cfg := BenchScale.DeviceConfig(8<<10, 3.5)
	if cfg.PageSize != 8<<10 {
		t.Errorf("page size = %d", cfg.PageSize)
	}
	if cfg.SpeedRatio != 3.5 {
		t.Errorf("ratio = %g", cfg.SpeedRatio)
	}
	if cfg.TransferBytesPerSec != 0 {
		t.Error("experiments must exclude per-op transfer (see Scale.DeviceConfig)")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTraceWorkloads(t *testing.T) {
	for _, tr := range paperTraces {
		gen := tr.workload(testScale)(64 << 20)
		if gen.LogicalBytes() != 64<<20 {
			t.Errorf("%s: logical bytes = %d", tr.name, gen.LogicalBytes())
		}
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	if _, err := Run(RunSpec{Name: "no-workload", Device: testScale.DeviceConfig(16<<10, 2), Kind: KindConventional}); err == nil {
		t.Error("missing workload accepted")
	}
	bad := testScale.DeviceConfig(16<<10, 2)
	bad.PageSize = 0
	if _, err := Run(RunSpec{Name: "bad-dev", Device: bad, Kind: KindConventional, Workload: testScale.WebSQLWorkload()}); err == nil {
		t.Error("bad device accepted")
	}
	if _, err := Run(RunSpec{Name: "bad-kind", Device: testScale.DeviceConfig(16<<10, 2), Kind: "nope", Workload: testScale.WebSQLWorkload()}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunAllKinds(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	for _, kind := range []FTLKind{KindConventional, KindPPB, KindGreedySpeed, KindHotColdSplit} {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(RunSpec{
				Name: "t/" + string(kind), Device: dev, Kind: kind,
				Workload: testScale.WebSQLWorkload(), Prefill: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.HostWritePage == 0 || res.HostReadPages == 0 {
				t.Error("no host activity recorded")
			}
			if res.ReadTotal <= 0 || res.WriteTotal <= 0 {
				t.Error("zero totals")
			}
			if res.UnmappedReads != 0 {
				t.Errorf("prefilled run had %d unmapped reads", res.UnmappedReads)
			}
		})
	}
}

func TestRunAllMatchesSequentialRuns(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	specs := []RunSpec{
		{Name: "ra/conv", Device: dev, Kind: KindConventional, Workload: testScale.WebSQLWorkload(), Prefill: true},
		{Name: "ra/ppb", Device: dev, Kind: KindPPB, Workload: testScale.WebSQLWorkload(), Prefill: true},
		{Name: "ra/split", Device: dev, Kind: KindHotColdSplit, Workload: testScale.MediaWorkload(), Prefill: true},
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
			t.Errorf("spec %d (%s): parallel result %+v != sequential %+v", i, spec.Name, parallel[i], seq)
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	specs := []RunSpec{
		{Name: "ok", Device: dev, Kind: KindConventional, Workload: testScale.WebSQLWorkload()},
		{Name: "bad", Device: dev, Kind: "nope", Workload: testScale.WebSQLWorkload()},
	}
	for _, parallelism := range []int{1, 2} {
		results, err := RunAll(specs, parallelism)
		if err == nil {
			t.Errorf("parallelism %d: bad spec did not surface an error", parallelism)
		}
		if results != nil {
			t.Errorf("parallelism %d: failed batch returned %d results, want nil", parallelism, len(results))
		}
	}
	if _, err := RunAll(specs[:1], 1); err != nil {
		t.Errorf("good spec failed: %v", err)
	}
}

func TestPrefillExcludedFromStats(t *testing.T) {
	dev := testScale.DeviceConfig(16<<10, 2)
	few := func(logicalBytes uint64) workload.Generator {
		n := 0
		return &workload.Func{WorkloadName: "tiny", Bytes: logicalBytes, NextFunc: func() (trace.Request, bool) {
			if n >= 10 {
				return trace.Request{}, false
			}
			n++
			return trace.Request{Op: trace.OpRead, Offset: uint64(n) * 16384, Size: 16384}, true
		}}
	}
	res, err := Run(RunSpec{Name: "prefill", Device: dev, Kind: KindConventional, Workload: few, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostWritePage != 0 {
		t.Errorf("prefill writes leaked into stats: %d", res.HostWritePage)
	}
	if res.HostReadPages != 10 {
		t.Errorf("reads = %d, want 10", res.HostReadPages)
	}
}

func TestReplayRequestSplitsPages(t *testing.T) {
	dev := nand.MustNewDevice(testScale.DeviceConfig(16<<10, 2))
	f, err := buildFTL(RunSpec{Kind: KindConventional}, dev)
	if err != nil {
		t.Fatal(err)
	}
	// A 3.5-page write touches 4 pages.
	req := trace.Request{Op: trace.OpWrite, Offset: 16384, Size: 3*16384 + 8192}
	if err := ReplayQueued(f, trace.NewSliceStream([]trace.Request{req}), NewReplayMetrics(), ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().HostWrites.Value(); got != 4 {
		t.Errorf("write pages = %d, want 4", got)
	}
}

func TestFigure12ShapeHolds(t *testing.T) {
	fig, err := figure12(testScale)
	if err != nil {
		t.Fatal(err)
	}
	web16 := fig.Series["websql/16K"][0]
	media16 := fig.Series["mediaserver/16K"][0]
	if web16 <= 0 {
		t.Errorf("websql 16K read enhancement = %.2f%%, want positive", web16*100)
	}
	if web16 < media16 {
		t.Errorf("websql (%.2f%%) should beat mediaserver (%.2f%%)", web16*100, media16*100)
	}
	if !strings.Contains(fig.Table.String(), "websql") {
		t.Error("table missing websql row")
	}
}

func TestFigure14ShapeHolds(t *testing.T) {
	fig, err := figure14(testScale)
	if err != nil {
		t.Fatal(err)
	}
	conv, ppb := fig.Series["conventional"], fig.Series["ppb"]
	if len(conv) != 4 || len(ppb) != 4 {
		t.Fatalf("series lengths = %d/%d", len(conv), len(ppb))
	}
	for i := range conv {
		if ppb[i] >= conv[i] {
			t.Errorf("ratio %dx: ppb %.3fs not below conventional %.3fs", i+2, ppb[i], conv[i])
		}
	}
	// Both curves drop as the ratio grows, and the PPB advantage widens.
	gapFirst := (conv[0] - ppb[0]) / conv[0]
	gapLast := (conv[3] - ppb[3]) / conv[3]
	if conv[3] >= conv[0] || ppb[3] >= ppb[0] {
		t.Error("read totals should fall as the speed ratio grows")
	}
	if gapLast <= gapFirst {
		t.Errorf("enhancement should widen with ratio: %.2f%% -> %.2f%%", gapFirst*100, gapLast*100)
	}
}

func TestFigure15WriteDeltaSmall(t *testing.T) {
	// Like erase parity, write parity is a steady-state property that
	// needs a realistically sized device; see TestFigure18EraseCounts.
	fig, err := figure15(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	for series, vals := range fig.Series {
		for _, v := range vals {
			if v < -0.25 || v > 0.25 {
				t.Errorf("%s write delta = %.2f%%, want small at bench scale", series, v*100)
			}
		}
	}
}

func TestFigure18EraseCounts(t *testing.T) {
	// Erase parity is a steady-state property: PPB pins a handful of
	// partially-open pipeline blocks, which distorts GC on toy devices
	// but vanishes at realistic scale. Run this one at bench scale.
	fig, err := figure18(BenchScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []string{"mediaserver", "websql"} {
		conv := fig.Series[tr+"/conventional"][0]
		ppb := fig.Series[tr+"/ppb"][0]
		if conv == 0 || ppb == 0 {
			t.Fatalf("%s: no erases recorded (conv=%v ppb=%v)", tr, conv, ppb)
		}
		if ppb > conv*1.20 {
			t.Errorf("%s: PPB erases %.0f exceed conventional %.0f by more than 20%%", tr, ppb, conv)
		}
	}
}

func TestMotivationFigure3Shape(t *testing.T) {
	fig, err := motivationFigure3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	greedy := fig.Series["greedy-speed/copies"][0]
	split := fig.Series["hotcold-split/copies"][0]
	if greedy < 1.5*split {
		t.Errorf("naive speed placement should inflate GC copies: greedy=%v split=%v", greedy, split)
	}
}

func TestAblationsRun(t *testing.T) {
	if _, err := ablationSplit(testScale); err != nil {
		t.Fatal(err)
	}
	fig, err := ablationIdentifier(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) < 4 {
		t.Errorf("identifier ablation series = %d", len(fig.Series))
	}
	if _, err := ablationLayers(testScale); err != nil {
		t.Fatal(err)
	}
}

func TestTableOne(t *testing.T) {
	fig := TableOne()
	out := fig.Table.String()
	// The paper's 64 GB, rounded from 63.996 GiB, beside the page count.
	if !regexp.MustCompile(`(?m)^\| Flash size +\| 64 GB \(4194048 pages\) +\|$`).MatchString(out) {
		t.Errorf("Table 1 flash size row is not 64 GB (4194048 pages):\n%s", out)
	}
	for _, want := range []string{"16 KB", "384", "600µs", "49µs", "4ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}
