package harness

import (
	"fmt"
	"strings"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/hotness"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// FigureResult bundles a rendered table with the raw numeric series so
// tests and benchmarks can assert on shapes without re-parsing text.
type FigureResult struct {
	// ID names the paper artifact, e.g. "figure-12".
	ID string
	// Table is the human-readable rendering.
	Table *metrics.Table
	// Series holds the raw numbers per named curve.
	Series map[string][]float64
	// Throughput maps every run of the figure's sweep, by spec name, to
	// its simulated device-ops-per-second (Result.SimOpsPerSec).
	// Deterministic like Series, but deliberately kept out of it: the
	// golden fixtures pin Series byte-exactly, and throughput is a speed
	// report, not a paper curve. ppbench -json serializes it separately.
	Throughput map[string]float64
}

func (f *FigureResult) add(series string, v float64) {
	f.Series[series] = append(f.Series[series], v)
}

// sweep is one experiment under construction: its figure, the specs of
// every point in presentation order, and the function that renders each
// point from its own results.
type sweep struct {
	*FigureResult
	specs  []RunSpec
	points []sweepPoint
}

type sweepPoint struct {
	runs   int
	render func([]Result)
}

func newSweep(id, title string, columns ...string) *sweep {
	return &sweep{FigureResult: &FigureResult{
		ID: id, Table: metrics.NewTable(title, columns...),
		Series:     make(map[string][]float64),
		Throughput: make(map[string]float64),
	}}
}

// point adds one point of the sweep: its specs, run with the rest of
// the batch, and render, which receives their results in spec order. A
// point without specs renders from what earlier points captured.
func (sw *sweep) point(specs []RunSpec, render func([]Result)) {
	sw.specs = append(sw.specs, specs...)
	sw.points = append(sw.points, sweepPoint{len(specs), render})
}

// single adds a point of one run.
func (sw *sweep) single(spec RunSpec, render func(Result)) {
	sw.point([]RunSpec{spec}, func(rs []Result) { render(rs[0]) })
}

// pair adds a conventional-vs-PPB comparison point: two copies of spec
// named name+"/conventional" and name+"/ppb".
func (sw *sweep) pair(name string, spec RunSpec, render func(conv, ppb Result)) {
	conv, ppb := spec, spec
	conv.Name, conv.Kind = name+"/conventional", KindConventional
	ppb.Name, ppb.Kind = name+"/ppb", KindPPB
	sw.point([]RunSpec{conv, ppb}, func(rs []Result) { render(rs[0], rs[1]) })
}

// run is the one sweep runner: it validates the scale, prefills every
// run, executes the whole batch through RunAll (so a multi-core host
// runs the sweep's simulations concurrently), records each run's
// throughput under its spec name and hands every point its own results
// in order.
func (sw *sweep) run(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for i := range sw.specs {
		sw.specs[i].Prefill = true
	}
	results, err := RunAll(sw.specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		sw.Throughput[sw.specs[i].Name] = res.SimOpsPerSec
	}
	for _, p := range sw.points {
		p.render(results[:p.runs])
		results = results[p.runs:]
	}
	return sw.FigureResult, nil
}

// paperTraces are the paper's two traces in presentation order.
var paperTraces = []struct {
	name     string
	workload func(Scale) WorkloadBuilder
}{
	{"mediaserver", Scale.MediaWorkload},
	{"websql", Scale.WebSQLWorkload},
}

// figure12 reproduces the read performance enhancement of PPB over the
// conventional FTL for both traces at 8 KB and 16 KB page sizes
// (speed ratio 2x, the footnote-1 default for current 64-layer parts).
func figure12(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-12", "Figure 12: Read Performance Enhancement (ratio 2x)",
		func(conv, ppb Result) float64 {
			return metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
		})
}

// figure15 reproduces the write performance enhancement, which the paper
// reports as essentially zero (|delta| well below 1%).
func figure15(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-15", "Figure 15: Write Performance Enhancement (ratio 2x)",
		func(conv, ppb Result) float64 {
			return metrics.Enhancement(conv.WriteTotal, ppb.WriteTotal)
		})
}

func enhancementFigure(s Scale, id, title string, metric func(conv, ppb Result) float64) (*FigureResult, error) {
	sw := newSweep(id, title, "trace", "8K page size", "16K page size")
	for _, tr := range paperTraces {
		cells := []any{tr.name}
		for _, pageSize := range []int{8 << 10, 16 << 10} {
			sw.pair(fmt.Sprintf("%s/%s/%dK", id, tr.name, pageSize>>10),
				RunSpec{Device: s.DeviceConfig(pageSize, 2.0), Workload: tr.workload(s)},
				func(conv, ppb Result) {
					e := metric(conv, ppb)
					sw.add(fmt.Sprintf("%s/%dK", tr.name, pageSize>>10), e)
					cells = append(cells, fmt.Sprintf("%.2f%%", e*100))
				})
		}
		sw.point(nil, func([]Result) { sw.Table.AddRow(cells...) })
	}
	return sw.run(s)
}

// latencySweep produces the Figures 13/14/16/17 family: total latency vs
// page access speed difference (2x..5x) for one trace, conventional vs
// PPB, at the Table 1 page size.
func latencySweep(s Scale, id, title string, wl WorkloadBuilder, read bool) (*FigureResult, error) {
	sw := newSweep(id, title, "speed diff", "conventional FTL (s)", "FTL with PPB (s)", "delta")
	for _, ratio := range []float64{2, 3, 4, 5} {
		sw.pair(fmt.Sprintf("%s/%gx", id, ratio), RunSpec{Device: s.DeviceConfig(16<<10, ratio), Workload: wl},
			func(conv, ppb Result) {
				cv, pv := conv.ReadTotal.Seconds(), ppb.ReadTotal.Seconds()
				if !read {
					cv, pv = conv.WriteTotal.Seconds(), ppb.WriteTotal.Seconds()
				}
				sw.add("conventional", cv)
				sw.add("ppb", pv)
				sw.Table.AddRow(fmt.Sprintf("%gx", ratio), cv, pv, fmt.Sprintf("%+.2f%%", (pv-cv)/cv*100))
			})
	}
	return sw.run(s)
}

// figure13 reproduces the media-server read latency sweep.
func figure13(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-13", "Figure 13: Media Server Trace — Read Latency Comparison", s.MediaWorkload(), true)
}

// figure14 reproduces the web-server read latency sweep.
func figure14(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-14", "Figure 14: Web Server Trace — Read Latency Comparison", s.WebSQLWorkload(), true)
}

// figure16 reproduces the media-server write latency sweep.
func figure16(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-16", "Figure 16: Media Server Trace — Write Latency Comparison", s.MediaWorkload(), false)
}

// figure17 reproduces the web-server write latency sweep.
func figure17(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-17", "Figure 17: Web Server Trace — Write Latency Comparison", s.WebSQLWorkload(), false)
}

// figure18 reproduces the erased-block count comparison: PPB must not
// inflate erase counts, i.e. GC efficiency is retained.
func figure18(s Scale) (*FigureResult, error) {
	sw := newSweep("figure-18", "Figure 18: Erased Block Count Comparison",
		"trace", "conventional FTL", "FTL with PPB", "delta")
	for _, tr := range paperTraces {
		sw.pair("figure-18/"+tr.name, RunSpec{Device: s.DeviceConfig(16<<10, 2.0), Workload: tr.workload(s)},
			func(conv, ppb Result) {
				sw.add(tr.name+"/conventional", float64(conv.Erases))
				sw.add(tr.name+"/ppb", float64(ppb.Erases))
				delta := "n/a"
				if conv.Erases > 0 {
					delta = fmt.Sprintf("%+.2f%%", (float64(ppb.Erases)-float64(conv.Erases))/float64(conv.Erases)*100)
				}
				sw.Table.AddRow(tr.name, conv.Erases, ppb.Erases, delta)
			})
	}
	return sw.run(s)
}

// motivationFigure3 quantifies the paper's Figure 3 argument: placing
// hot data in fast pages and cold data in slow pages of the same blocks
// (GreedySpeed) wrecks GC, while hot/cold block separation (with or
// without speed awareness) keeps it cheap.
func motivationFigure3(s Scale) (*FigureResult, error) {
	sw := newSweep("motivation-3", "Motivation (Figure 3): GC cost of naive speed placement (websql)",
		"strategy", "GC copies", "erases", "WAF", "read total (s)")
	for _, kind := range []FTLKind{KindConventional, KindGreedySpeed, KindHotColdSplit, KindPPB} {
		sw.single(RunSpec{
			Name: "motivation/" + string(kind), Device: s.DeviceConfig(16<<10, 2.0),
			Kind: kind, Workload: s.WebSQLWorkload(),
		}, func(res Result) {
			sw.add(string(kind)+"/copies", float64(res.GCCopies))
			sw.add(string(kind)+"/erases", float64(res.Erases))
			sw.add(string(kind)+"/waf", res.WAF)
			sw.Table.AddRow(string(kind), res.GCCopies, res.Erases, res.WAF, res.ReadTotal.Seconds())
		})
	}
	return sw.run(s)
}

// ablationSplit sweeps the virtual-block split factor K (§3.3.1 notes a
// physical block "can be divided into multiple virtual blocks rather
// than two" at extra bookkeeping cost).
func ablationSplit(s Scale) (*FigureResult, error) {
	sw := newSweep("ablation-split", "Ablation: virtual-block split factor (websql, 2x)",
		"K", "read total (s)", "write total (s)", "migrations", "diversions")
	for _, k := range []int{2, 4, 8} {
		sw.single(RunSpec{
			Name: fmt.Sprintf("ablation-split/k%d", k), Device: s.DeviceConfig(16<<10, 2.0),
			Kind: KindPPB, PPBOptions: core.Options{SplitFactor: k}, Workload: s.WebSQLWorkload(),
		}, func(res Result) {
			sw.add("read", res.ReadTotal.Seconds())
			sw.add("migrations", float64(res.Migrations))
			sw.Table.AddRow(fmt.Sprintf("%d", k), res.ReadTotal.Seconds(), res.WriteTotal.Seconds(),
				res.Migrations, res.Diversions)
		})
	}
	return sw.run(s)
}

// ablationIdentifier swaps the first-stage identifier, demonstrating the
// claim that PPB "is compatible with any hot/cold data identification
// mechanism" — and showing how much the identifier quality matters.
func ablationIdentifier(s Scale) (*FigureResult, error) {
	sw := newSweep("ablation-identifier", "Ablation: first-stage identifier (websql, 2x)",
		"identifier", "read total (s)", "read enhancement", "fast-read share")
	dev := s.DeviceConfig(16<<10, 2.0)
	var conv Result
	sw.single(RunSpec{
		Name: "ablation-ident/conventional", Device: dev, Kind: KindConventional, Workload: s.WebSQLWorkload(),
	}, func(res Result) { conv = res })
	for _, id := range []hotness.Identifier{
		hotness.SizeCheck{ThresholdBytes: dev.PageSize},
		hotness.NewRecency(4096),
		hotness.Static{Result: hotness.AreaHot},
		hotness.Static{Result: hotness.AreaCold},
	} {
		sw.single(RunSpec{
			Name: "ablation-ident/" + id.Name(), Device: dev, Kind: KindPPB,
			PPBOptions: core.Options{Identifier: id}, Workload: s.WebSQLWorkload(),
		}, func(res Result) {
			e := metrics.Enhancement(conv.ReadTotal, res.ReadTotal)
			sw.add(id.Name(), e)
			sw.Table.AddRow(id.Name(), res.ReadTotal.Seconds(), fmt.Sprintf("%+.2f%%", e*100),
				fmt.Sprintf("%.1f%%", res.FastReadShare*100))
		})
	}
	return sw.run(s)
}

// ablationLayers sweeps the gate-stack layer count at a fixed 2x ratio
// (footnote 1: the speed spread persists as parts grow from 24 to 96+
// layers; PPB only needs the monotone spread, not a specific count).
func ablationLayers(s Scale) (*FigureResult, error) {
	sw := newSweep("ablation-layers", "Ablation: gate stack layers (websql, 2x)",
		"layers", "conventional read (s)", "ppb read (s)", "enhancement")
	for _, layers := range []int{24, 48, 64, 96} {
		dev := s.DeviceConfig(16<<10, 2.0)
		dev.Layers = layers
		name := fmt.Sprintf("ablation-layers/%d", layers)
		sw.point([]RunSpec{
			{Name: name + "/conv", Device: dev, Kind: KindConventional, Workload: s.WebSQLWorkload()},
			{Name: name + "/ppb", Device: dev, Kind: KindPPB, Workload: s.WebSQLWorkload()},
		}, func(rs []Result) {
			conv, ppb := rs[0], rs[1]
			e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
			sw.add("enhancement", e)
			sw.Table.AddRow(fmt.Sprintf("%d", layers), conv.ReadTotal.Seconds(), ppb.ReadTotal.Seconds(),
				fmt.Sprintf("%+.2f%%", e*100))
		})
	}
	return sw.run(s)
}

// chipSweepCounts is the chip axis of experiment a4.
var chipSweepCounts = []int{1, 2, 4, 8}

// trimToChipMultiple trims the block count down to a multiple of chips so
// WithChips divides evenly and every point of a chip-spread sweep exports
// exactly the same capacity; never trims below one block per chip.
func trimToChipMultiple(cfg nand.Config, chips int) nand.Config {
	cfg.BlocksPerChip -= cfg.BlocksPerChip % chips
	if cfg.BlocksPerChip < chips {
		cfg.BlocksPerChip = chips
	}
	return cfg
}

// fourChipDevice is the device of experiments a5–a8 and a10: queue
// depth, chip dispatch, dependency chains, planes and tenant isolation
// only move the timeline when independent operations can land on
// different chips, so these sweeps share one mid-size multi-chip device
// (the a4 sweet spot), and a8's planes=1, suspend-off corner is directly
// comparable to a7's causal baseline.
func fourChipDevice(s Scale) nand.Config {
	return trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), 4).WithChips(4)
}

// deepQD is the host queue depth of experiments a7 and a8: deep enough
// that host reads land while multi-millisecond GC erases are in flight —
// the contention erase deferral and suspend-resume exist to relieve.
const deepQD = 8

// chipSweep (experiment a4) measures what the paper-scale figures cannot
// express on a single serial chip: per-request tail latency and simulated
// makespan as the same device capacity is spread over 1, 2, 4 and 8 chips
// with channel-striped block allocation, for both traces, conventional vs
// PPB. Chip-parallel service lets garbage-collection reads, programs and
// multi-millisecond erases overlap host work on other chips, so makespan
// falls as chips increase while per-page cost totals stay comparable.
func chipSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a4-chip-sweep", "Experiment a4: chip-parallel tail latency and makespan (ratio 2x)",
		"trace", "chips", "conv makespan (s)", "ppb makespan (s)", "read enhancement", "ppb read p99", "ppb write p99")
	// Trim to a multiple of the widest sweep point so all points export
	// the same capacity.
	base := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), chipSweepCounts[len(chipSweepCounts)-1])
	for _, tr := range paperTraces {
		for _, chips := range chipSweepCounts {
			sw.pair(fmt.Sprintf("chip-sweep/%s/%dc", tr.name, chips),
				RunSpec{Device: base.WithChips(chips), Workload: tr.workload(s)},
				func(conv, ppb Result) {
					e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
					sw.add(tr.name+"/makespan/conv", conv.Makespan.Seconds())
					sw.add(tr.name+"/makespan/ppb", ppb.Makespan.Seconds())
					sw.add(tr.name+"/enhancement", e)
					sw.add(tr.name+"/readp99/ppb", ppb.ReadP99.Seconds())
					sw.add(tr.name+"/writep99/ppb", ppb.WriteP99.Seconds())
					sw.Table.AddRow(tr.name, chips, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
						fmt.Sprintf("%+.2f%%", e*100), ppb.ReadP99, ppb.WriteP99)
				})
		}
	}
	return sw.run(s)
}

// qdSweepDepths is the queue-depth axis of experiment a5.
var qdSweepDepths = []int{1, 4, 16, 64}

// qdSweep (experiment a5) measures the queue-depth axis the closed
// QD-1 host could never exercise: the same 4-chip device, both traces,
// conventional vs PPB, with the host keeping 1, 4, 16 and 64 requests
// outstanding. Makespan falls as the depth grows (more chip overlap)
// while per-request completion latency and the newly split-out queueing
// delay grow — tail latency finally responds to load, not just to GC
// interference.
func qdSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a5-qd-sweep", "Experiment a5: queue-depth sweep on 4 chips (ratio 2x)",
		"trace", "QD", "conv makespan (s)", "ppb makespan (s)", "ppb read p99", "ppb write p99", "conv qdelay p99", "ppb qdelay p99")
	for _, tr := range paperTraces {
		for _, qd := range qdSweepDepths {
			sw.pair(fmt.Sprintf("qd-sweep/%s/qd%d", tr.name, qd),
				RunSpec{Device: fourChipDevice(s), Workload: tr.workload(s), QueueDepth: qd},
				func(conv, ppb Result) {
					sw.add(tr.name+"/makespan/conv", conv.Makespan.Seconds())
					sw.add(tr.name+"/makespan/ppb", ppb.Makespan.Seconds())
					sw.add(tr.name+"/readp99/ppb", ppb.ReadP99.Seconds())
					sw.add(tr.name+"/writep99/ppb", ppb.WriteP99.Seconds())
					sw.add(tr.name+"/qdelayp99/conv", conv.QueueDelayP99.Seconds())
					sw.add(tr.name+"/qdelayp99/ppb", ppb.QueueDelayP99.Seconds())
					sw.Table.AddRow(tr.name, qd, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
						ppb.ReadP99, ppb.WriteP99, conv.QueueDelayP99, ppb.QueueDelayP99)
				})
		}
	}
	return sw.run(s)
}

// dispatchPolicies is the policy axis of experiments a6 and a7, frozen
// to the single-tenant policies those goldens were recorded over.
// TenantPartition is left out: on a single-tenant run it degenerates to
// LeastLoaded, so sweeping it in a6/a7 would double a column and shift
// the golden fixtures for no information (a10 sweeps it).
var dispatchPolicies = []vblock.DispatchPolicy{vblock.Striped, vblock.LeastLoaded, vblock.HotColdAffinity}

// dispatchSweepDepths is the queue-depth axis of experiment a6: deep
// enough that block placement decides how much of the queue overlaps.
var dispatchSweepDepths = []int{4, 16}

// dispatchSweep (experiment a6) measures the chip-dispatch policy axis:
// the same 4-chip device, both traces, conventional vs PPB, each
// dispatch policy, at queue depths 4 and 16. Round-robin striping is
// placement-blind — a hot chip stays hot no matter what the clocks say —
// so on the skewed websql trace the least-loaded policy opens fresh
// blocks on idle chips instead, lowering makespan and the queueing-delay
// tail; hot/cold affinity trades some of that balance for isolating hot
// host writes from cold GC erases.
func dispatchSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a6-dispatch-sweep", "Experiment a6: chip-dispatch policy x queue depth on 4 chips (ratio 2x)",
		"trace", "dispatch", "QD", "conv makespan (s)", "ppb makespan (s)", "conv qdelay p99", "ppb qdelay p99", "ppb read p99")
	for _, tr := range paperTraces {
		for _, policy := range dispatchPolicies {
			key := fmt.Sprintf("%s/%s", tr.name, policy)
			for _, qd := range dispatchSweepDepths {
				sw.pair(fmt.Sprintf("dispatch-sweep/%s/qd%d", key, qd), RunSpec{
					Device: fourChipDevice(s), Workload: tr.workload(s), QueueDepth: qd,
					FTLOptions: ftl.Options{Dispatch: policy},
				}, func(conv, ppb Result) {
					sw.add(key+"/makespan/conv", conv.Makespan.Seconds())
					sw.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
					sw.add(key+"/qdelayp99/conv", conv.QueueDelayP99.Seconds())
					sw.add(key+"/qdelayp99/ppb", ppb.QueueDelayP99.Seconds())
					sw.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
					sw.Table.AddRow(tr.name, policy, qd, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
						conv.QueueDelayP99, ppb.QueueDelayP99, ppb.ReadP99)
				})
			}
		}
	}
	return sw.run(s)
}

// causalDeferModes is the erase-deferral axis of experiment a7, with the
// name its series keys carry.
var causalDeferModes = []struct {
	name string
	on   bool
}{{"defer-off", false}, {"defer-on", true}}

// causalSweep (experiment a7) measures erase deferral (head-of-line
// erases vs per-chip deferred queues committed on idle) x dispatch
// policy under causal GC read -> program -> erase chains, on the 4-chip
// device at queue depth 8, websql, conventional vs PPB. Erase deferral
// moves multi-millisecond erases out of the read path, cutting read
// p99 — without changing a single erase, which is asserted under the
// timing-independent striped placement.
func causalSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a7-causal-sweep", "Experiment a7: erase deferral x dispatch under causal GC (websql, 4 chips, QD 8)",
		"deferral", "dispatch", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv erases", "ppb erases")
	for _, mode := range causalDeferModes {
		key := mode.name
		for _, policy := range dispatchPolicies {
			sw.pair(fmt.Sprintf("causal-sweep/%s/%s", key, policy), RunSpec{
				Device: fourChipDevice(s), Workload: s.WebSQLWorkload(), QueueDepth: deepQD,
				FTLOptions: ftl.Options{Dispatch: policy, DeferErases: mode.on},
			}, func(conv, ppb Result) {
				sw.add(key+"/makespan/conv", conv.Makespan.Seconds())
				sw.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
				sw.add(key+"/readp99/conv", conv.ReadP99.Seconds())
				sw.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
				sw.add(key+"/writep99/ppb", ppb.WriteP99.Seconds())
				sw.add(key+"/erases/conv", float64(conv.Erases))
				sw.add(key+"/erases/ppb", float64(ppb.Erases))
				sw.Table.AddRow(key, policy, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
					conv.ReadP99, ppb.ReadP99, conv.Erases, ppb.Erases)
			})
		}
	}
	return sw.run(s)
}

// intraChipPlaneCounts is the plane axis of experiment a8: serial chips
// first, so the sweep reads as the pre-plane baseline plus overlap.
var intraChipPlaneCounts = []int{1, 2, 4}

// intraChipSuspendModes is the suspend-policy axis of experiment a8
// (off is the a7 causal baseline).
var intraChipSuspendModes = []nand.SuspendPolicy{nand.SuspendOff, nand.SuspendErase}

// intraChipSweep (experiment a8) measures the intra-chip parallelism
// axes: plane count (ops on distinct planes of one chip overlap within
// the reordering window) x erase suspend policy (an incoming read may
// preempt an in-flight erase at suspend/resume cost), on the 4-chip
// device at queue depth 8, websql, conventional vs PPB, causal GC
// dependencies, erase deferral off so erases sit head-of-line — exactly
// where suspension bites. Striped dispatch keeps block placement
// timing-independent, so erase counts must be identical across every
// cell of the sweep: planes and suspension move only time, never data.
func intraChipSweep(s Scale) (*FigureResult, error) {
	sw := newSweep("a8-intrachip-sweep", "Experiment a8: plane count x erase suspend (websql, 4 chips, QD 8)",
		"planes", "suspend", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv suspends", "ppb suspends", "conv erases", "ppb erases")
	for _, planes := range intraChipPlaneCounts {
		for _, susp := range intraChipSuspendModes {
			key := fmt.Sprintf("p%d/%s", planes, susp)
			sw.pair("intrachip-sweep/"+key, RunSpec{
				Device: fourChipDevice(s).WithPlanes(planes), Workload: s.WebSQLWorkload(), QueueDepth: deepQD,
				FTLOptions: ftl.Options{Suspend: susp},
			}, func(conv, ppb Result) {
				sw.add(key+"/makespan/conv", conv.Makespan.Seconds())
				sw.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
				sw.add(key+"/readp99/conv", conv.ReadP99.Seconds())
				sw.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
				sw.add(key+"/suspends/conv", float64(conv.Suspends))
				sw.add(key+"/suspends/ppb", float64(ppb.Suspends))
				sw.add(key+"/erases/conv", float64(conv.Erases))
				sw.add(key+"/erases/ppb", float64(ppb.Erases))
				sw.Table.AddRow(planes, susp, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
					conv.ReadP99, ppb.ReadP99, conv.Suspends, ppb.Suspends, conv.Erases, ppb.Erases)
			})
		}
	}
	return sw.run(s)
}

// TableOne renders the experimental parameters (the paper's Table 1).
func TableOne() *FigureResult {
	cfg := Scale{DeviceDivisor: 1, WriteTurnover: 1}.DeviceConfig(16<<10, 2.0)
	tbl := metrics.NewTable("Table 1: Experimental Parameters", "item", "specification")
	tbl.AddRow("Flash size", fmt.Sprintf("%d GB", cfg.TotalBytes()>>30))
	tbl.AddRow("Page size", fmt.Sprintf("%d KB", cfg.PageSize>>10))
	tbl.AddRow("Number of pages per block", fmt.Sprintf("%d", cfg.PagesPerBlock))
	tbl.AddRow("Page write latency", fmt.Sprintf("%v", cfg.ProgramLatency))
	tbl.AddRow("Page read latency", fmt.Sprintf("%v", cfg.ReadLatency))
	tbl.AddRow("Data transfer rate", "533 M (listed per Table 1; not charged per op — see Scale.DeviceConfig)")
	tbl.AddRow("Block erase time", fmt.Sprintf("%v", cfg.EraseLatency))
	tbl.AddRow("Gate stack layers", fmt.Sprintf("%d", cfg.Layers))
	return &FigureResult{ID: "table-1", Table: tbl}
}

// experiments is the registry in presentation order: every experiment's
// ID and the function that runs it. Each is pinned at quick scale by
// testdata/golden/<id>.json (re-record with go test ./internal/harness
// -run TestGoldenFigures -update).
var experiments = []struct {
	id  string
	run func(Scale) (*FigureResult, error)
}{
	{"12", figure12},
	{"13", figure13},
	{"14", figure14},
	{"15", figure15},
	{"16", figure16},
	{"17", figure17},
	{"18", figure18},
	{"3", motivationFigure3},
	{"a1", ablationSplit},
	{"a2", ablationIdentifier},
	{"a3", ablationLayers},
	{"a4", chipSweep},
	{"a5", qdSweep},
	{"a6", dispatchSweep},
	{"a7", causalSweep},
	{"a8", intraChipSweep},
	{"a9", reliabilitySweep},
	{"a10", tenantSweep},
}

// ExperimentIDs lists the registered experiment IDs in presentation
// order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// RunExperiment runs the experiment registered under id at scale s.
func RunExperiment(id string, s Scale) (*FigureResult, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (want one of %s)", id, strings.Join(ExperimentIDs(), ", "))
}
