package harness

import (
	"fmt"

	"ppbflash/internal/core"
	"ppbflash/internal/hotness"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
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
	// Throughput maps every completed run of the figure's sweep, by spec
	// name, to its simulated device-ops-per-second (Result.SimOpsPerSec).
	// Deterministic like Series, but deliberately kept out of it: the
	// golden fixtures pin Series byte-exactly, and throughput is a speed
	// report, not a paper curve. ppbench -json serializes it separately.
	Throughput map[string]float64
}

func newFigure(id string, table *metrics.Table) *FigureResult {
	return &FigureResult{
		ID: id, Table: table,
		Series:     make(map[string][]float64),
		Throughput: make(map[string]float64),
	}
}

func (f *FigureResult) add(series string, v float64) {
	f.Series[series] = append(f.Series[series], v)
}

// recordThroughput stores each completed run's simulated throughput
// under its spec name, giving every figure a device-ops/sec series
// without touching the golden-pinned Series. Skipped rows (fail-fast
// leftovers) are dropped, like everywhere else results are tabulated.
func (f *FigureResult) recordThroughput(specs []RunSpec, results []Result) {
	for i, res := range results {
		if res.Skipped {
			continue
		}
		f.Throughput[specs[i].Name] = res.SimOpsPerSec
	}
}

// pairSpecs builds the conventional/PPB spec pair of one comparison
// point. Figures gather every pair of their sweep into one slice and
// execute the whole batch through RunAll, so a multi-core host runs the
// sweep's simulations concurrently.
func pairSpecs(name string, s Scale, pageSize int, ratio float64, wl WorkloadBuilder) [2]RunSpec {
	dev := s.DeviceConfig(pageSize, ratio)
	return [2]RunSpec{
		{Name: name + "/conventional", Device: dev, Kind: KindConventional, Workload: wl, Prefill: true},
		{Name: name + "/ppb", Device: dev, Kind: KindPPB, Workload: wl, Prefill: true},
	}
}

var paperTraces = []string{"mediaserver", "websql"}

// Figure12 reproduces the read performance enhancement of PPB over the
// conventional FTL for both traces at 8 KB and 16 KB page sizes
// (speed ratio 2x, the footnote-1 default for current 64-layer parts).
func Figure12(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-12", "Figure 12: Read Performance Enhancement (ratio 2x)",
		func(conv, ppb Result) float64 {
			return metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
		})
}

// Figure15 reproduces the write performance enhancement, which the paper
// reports as essentially zero (|delta| well below 1%).
func Figure15(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-15", "Figure 15: Write Performance Enhancement (ratio 2x)",
		func(conv, ppb Result) float64 {
			return metrics.Enhancement(conv.WriteTotal, ppb.WriteTotal)
		})
}

func enhancementFigure(s Scale, id, title string, metric func(conv, ppb Result) float64) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pageSizes := []int{8 << 10, 16 << 10}
	specs := make([]RunSpec, 0, len(paperTraces)*len(pageSizes)*2)
	for _, tr := range paperTraces {
		wl, err := s.workloadByName(tr)
		if err != nil {
			return nil, err
		}
		for _, pageSize := range pageSizes {
			p := pairSpecs(fmt.Sprintf("%s/%s/%dK", id, tr, pageSize>>10), s, pageSize, 2.0, wl)
			specs = append(specs, p[0], p[1])
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "trace", "8K page size", "16K page size")
	fig := newFigure(id, tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, tr := range paperTraces {
		cells := []any{tr}
		for _, pageSize := range pageSizes {
			conv, ppb := results[i], results[i+1]
			i += 2
			e := metric(conv, ppb)
			fig.add(fmt.Sprintf("%s/%dK", tr, pageSize>>10), e)
			cells = append(cells, fmt.Sprintf("%.2f%%", e*100))
		}
		tbl.AddRow(cells...)
	}
	return fig, nil
}

// latencySweep produces the Figures 13/14/16/17 family: total latency vs
// page access speed difference (2x..5x) for one trace, conventional vs
// PPB, at the Table 1 page size.
func latencySweep(s Scale, id, title, traceName string, read bool) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl, err := s.workloadByName(traceName)
	if err != nil {
		return nil, err
	}
	ratios := []float64{2, 3, 4, 5}
	specs := make([]RunSpec, 0, len(ratios)*2)
	for _, ratio := range ratios {
		p := pairSpecs(fmt.Sprintf("%s/%gx", id, ratio), s, 16<<10, ratio, wl)
		specs = append(specs, p[0], p[1])
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "speed diff", "conventional FTL (s)", "FTL with PPB (s)", "delta")
	fig := newFigure(id, tbl)
	fig.recordThroughput(specs, results)
	for i, ratio := range ratios {
		conv, ppb := results[2*i], results[2*i+1]
		cv, pv := conv.ReadTotal.Seconds(), ppb.ReadTotal.Seconds()
		if !read {
			cv, pv = conv.WriteTotal.Seconds(), ppb.WriteTotal.Seconds()
		}
		fig.add("conventional", cv)
		fig.add("ppb", pv)
		tbl.AddRow(fmt.Sprintf("%gx", ratio), cv, pv, fmt.Sprintf("%+.2f%%", (pv-cv)/cv*100))
	}
	return fig, nil
}

// Figure13 reproduces the media-server read latency sweep.
func Figure13(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-13", "Figure 13: Media Server Trace — Read Latency Comparison", "mediaserver", true)
}

// Figure14 reproduces the web-server read latency sweep.
func Figure14(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-14", "Figure 14: Web Server Trace — Read Latency Comparison", "websql", true)
}

// Figure16 reproduces the media-server write latency sweep.
func Figure16(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-16", "Figure 16: Media Server Trace — Write Latency Comparison", "mediaserver", false)
}

// Figure17 reproduces the web-server write latency sweep.
func Figure17(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-17", "Figure 17: Web Server Trace — Write Latency Comparison", "websql", false)
}

// Figure18 reproduces the erased-block count comparison: PPB must not
// inflate erase counts, i.e. GC efficiency is retained.
func Figure18(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	specs := make([]RunSpec, 0, len(paperTraces)*2)
	for _, tr := range paperTraces {
		wl, err := s.workloadByName(tr)
		if err != nil {
			return nil, err
		}
		p := pairSpecs("figure-18/"+tr, s, 16<<10, 2.0, wl)
		specs = append(specs, p[0], p[1])
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Figure 18: Erased Block Count Comparison",
		"trace", "conventional FTL", "FTL with PPB", "delta")
	fig := newFigure("figure-18", tbl)
	fig.recordThroughput(specs, results)
	for i, tr := range paperTraces {
		conv, ppb := results[2*i], results[2*i+1]
		fig.add(tr+"/conventional", float64(conv.Erases))
		fig.add(tr+"/ppb", float64(ppb.Erases))
		delta := "n/a"
		if conv.Erases > 0 {
			delta = fmt.Sprintf("%+.2f%%", (float64(ppb.Erases)-float64(conv.Erases))/float64(conv.Erases)*100)
		}
		tbl.AddRow(tr, conv.Erases, ppb.Erases, delta)
	}
	return fig, nil
}

// MotivationFigure3 quantifies the paper's Figure 3 argument: placing
// hot data in fast pages and cold data in slow pages of the same blocks
// (GreedySpeed) wrecks GC, while hot/cold block separation (with or
// without speed awareness) keeps it cheap.
func MotivationFigure3(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := s.WebSQLWorkload()
	kinds := []FTLKind{KindConventional, KindGreedySpeed, KindHotColdSplit, KindPPB}
	specs := make([]RunSpec, len(kinds))
	for i, kind := range kinds {
		specs[i] = RunSpec{
			Name: "motivation/" + string(kind), Device: s.DeviceConfig(16<<10, 2.0),
			Kind: kind, Workload: wl, Prefill: true,
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Motivation (Figure 3): GC cost of naive speed placement (websql)",
		"strategy", "GC copies", "erases", "WAF", "read total (s)")
	fig := newFigure("motivation-3", tbl)
	fig.recordThroughput(specs, results)
	for i, kind := range kinds {
		res := results[i]
		fig.add(string(kind)+"/copies", float64(res.GCCopies))
		fig.add(string(kind)+"/erases", float64(res.Erases))
		fig.add(string(kind)+"/waf", res.WAF)
		tbl.AddRow(string(kind), res.GCCopies, res.Erases, res.WAF, res.ReadTotal.Seconds())
	}
	return fig, nil
}

// AblationSplit sweeps the virtual-block split factor K (§3.3.1 notes a
// physical block "can be divided into multiple virtual blocks rather
// than two" at extra bookkeeping cost).
func AblationSplit(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := s.WebSQLWorkload()
	ks := []int{2, 4, 8}
	specs := make([]RunSpec, len(ks))
	for i, k := range ks {
		specs[i] = RunSpec{
			Name: fmt.Sprintf("ablation-split/k%d", k), Device: s.DeviceConfig(16<<10, 2.0),
			Kind: KindPPB, PPBOptions: core.Options{SplitFactor: k},
			Workload: wl, Prefill: true,
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Ablation: virtual-block split factor (websql, 2x)",
		"K", "read total (s)", "write total (s)", "migrations", "diversions")
	fig := newFigure("ablation-split", tbl)
	fig.recordThroughput(specs, results)
	for i, k := range ks {
		res := results[i]
		fig.add("read", res.ReadTotal.Seconds())
		fig.add("migrations", float64(res.Migrations))
		tbl.AddRow(fmt.Sprintf("%d", k), res.ReadTotal.Seconds(), res.WriteTotal.Seconds(),
			res.Migrations, res.Diversions)
	}
	return fig, nil
}

// AblationIdentifier swaps the first-stage identifier, demonstrating the
// claim that PPB "is compatible with any hot/cold data identification
// mechanism" — and showing how much the identifier quality matters.
func AblationIdentifier(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := s.WebSQLWorkload()
	dev := s.DeviceConfig(16<<10, 2.0)
	idents := []hotness.Identifier{
		hotness.SizeCheck{ThresholdBytes: dev.PageSize},
		hotness.NewRecency(4096),
		hotness.Static{Result: hotness.AreaHot},
		hotness.Static{Result: hotness.AreaCold},
	}
	specs := make([]RunSpec, 0, len(idents)+1)
	specs = append(specs, RunSpec{
		Name: "ablation-ident/conventional", Device: dev, Kind: KindConventional,
		Workload: wl, Prefill: true,
	})
	for _, id := range idents {
		specs = append(specs, RunSpec{
			Name: "ablation-ident/" + id.Name(), Device: dev, Kind: KindPPB,
			PPBOptions: core.Options{Identifier: id}, Workload: wl, Prefill: true,
		})
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	conv := results[0]
	tbl := metrics.NewTable("Ablation: first-stage identifier (websql, 2x)",
		"identifier", "read total (s)", "read enhancement", "fast-read share")
	fig := newFigure("ablation-identifier", tbl)
	fig.recordThroughput(specs, results)
	for i, id := range idents {
		res := results[i+1]
		e := metrics.Enhancement(conv.ReadTotal, res.ReadTotal)
		fig.add(id.Name(), e)
		tbl.AddRow(id.Name(), res.ReadTotal.Seconds(), fmt.Sprintf("%+.2f%%", e*100),
			fmt.Sprintf("%.1f%%", res.FastReadShare*100))
	}
	return fig, nil
}

// AblationLayers sweeps the gate-stack layer count at a fixed 2x ratio
// (footnote 1: the speed spread persists as parts grow from 24 to 96+
// layers; PPB only needs the monotone spread, not a specific count).
func AblationLayers(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := s.WebSQLWorkload()
	layerCounts := []int{24, 48, 64, 96}
	specs := make([]RunSpec, 0, len(layerCounts)*2)
	for _, layers := range layerCounts {
		dev := s.DeviceConfig(16<<10, 2.0)
		dev.Layers = layers
		specs = append(specs,
			RunSpec{
				Name: fmt.Sprintf("ablation-layers/%d/conv", layers), Device: dev,
				Kind: KindConventional, Workload: wl, Prefill: true,
			},
			RunSpec{
				Name: fmt.Sprintf("ablation-layers/%d/ppb", layers), Device: dev,
				Kind: KindPPB, Workload: wl, Prefill: true,
			})
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Ablation: gate stack layers (websql, 2x)",
		"layers", "conventional read (s)", "ppb read (s)", "enhancement")
	fig := newFigure("ablation-layers", tbl)
	fig.recordThroughput(specs, results)
	for i, layers := range layerCounts {
		conv, ppb := results[2*i], results[2*i+1]
		e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
		fig.add("enhancement", e)
		tbl.AddRow(fmt.Sprintf("%d", layers), conv.ReadTotal.Seconds(), ppb.ReadTotal.Seconds(),
			fmt.Sprintf("%+.2f%%", e*100))
	}
	return fig, nil
}

// ChipSweepCounts is the chip axis of experiment a4.
var ChipSweepCounts = []int{1, 2, 4, 8}

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

// ChipSweep (experiment a4) measures what the paper-scale figures cannot
// express on a single serial chip: per-request tail latency and simulated
// makespan as the same device capacity is spread over 1, 2, 4 and 8 chips
// with channel-striped block allocation, for both traces, conventional vs
// PPB. Chip-parallel service lets garbage-collection reads, programs and
// multi-millisecond erases overlap host work on other chips, so makespan
// falls as chips increase while per-page cost totals stay comparable.
func ChipSweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Trim to a multiple of the widest sweep point so all points export
	// the same capacity.
	base := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), ChipSweepCounts[len(ChipSweepCounts)-1])
	specs := make([]RunSpec, 0, len(paperTraces)*len(ChipSweepCounts)*2)
	for _, tr := range paperTraces {
		wl, err := s.workloadByName(tr)
		if err != nil {
			return nil, err
		}
		for _, chips := range ChipSweepCounts {
			p := pairSpecs(fmt.Sprintf("chip-sweep/%s/%dc", tr, chips), s, 16<<10, 2.0, wl)
			dev := base.WithChips(chips)
			p[0].Device, p[1].Device = dev, dev
			specs = append(specs, p[0], p[1])
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a4: chip-parallel tail latency and makespan (ratio 2x)",
		"trace", "chips", "conv makespan (s)", "ppb makespan (s)", "read enhancement", "ppb read p99", "ppb write p99")
	fig := newFigure("a4-chip-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, tr := range paperTraces {
		for _, chips := range ChipSweepCounts {
			conv, ppb := results[i], results[i+1]
			i += 2
			e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
			fig.add(tr+"/makespan/conv", conv.Makespan.Seconds())
			fig.add(tr+"/makespan/ppb", ppb.Makespan.Seconds())
			fig.add(tr+"/enhancement", e)
			fig.add(tr+"/readp99/ppb", ppb.ReadP99.Seconds())
			fig.add(tr+"/writep99/ppb", ppb.WriteP99.Seconds())
			tbl.AddRow(tr, chips, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				fmt.Sprintf("%+.2f%%", e*100), ppb.ReadP99, ppb.WriteP99)
		}
	}
	return fig, nil
}

// QDSweepDepths is the queue-depth axis of experiment a5.
var QDSweepDepths = []int{1, 4, 16, 64}

// qdSweepChips is the chip count experiment a5 runs on: queue depth only
// buys overlap when independent requests can land on different chips, so
// the sweep uses a mid-size multi-chip device (the a4 sweet spot).
const qdSweepChips = 4

// QDSweep (experiment a5) measures the queue-depth axis the closed
// QD-1 host could never exercise: the same 4-chip device, both traces,
// conventional vs PPB, with the host keeping 1, 4, 16 and 64 requests
// outstanding. Makespan falls as the depth grows (more chip overlap)
// while per-request completion latency and the newly split-out queueing
// delay grow — tail latency finally responds to load, not just to GC
// interference.
func QDSweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dev := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), qdSweepChips).WithChips(qdSweepChips)
	specs := make([]RunSpec, 0, len(paperTraces)*len(QDSweepDepths)*2)
	for _, tr := range paperTraces {
		wl, err := s.workloadByName(tr)
		if err != nil {
			return nil, err
		}
		for _, qd := range QDSweepDepths {
			p := pairSpecs(fmt.Sprintf("qd-sweep/%s/qd%d", tr, qd), s, 16<<10, 2.0, wl)
			p[0].Device, p[1].Device = dev, dev
			p[0].QueueDepth, p[1].QueueDepth = qd, qd
			specs = append(specs, p[0], p[1])
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a5: queue-depth sweep on 4 chips (ratio 2x)",
		"trace", "QD", "conv makespan (s)", "ppb makespan (s)", "ppb read p99", "ppb write p99", "conv qdelay p99", "ppb qdelay p99")
	fig := newFigure("a5-qd-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, tr := range paperTraces {
		for _, qd := range QDSweepDepths {
			conv, ppb := results[i], results[i+1]
			i += 2
			fig.add(tr+"/makespan/conv", conv.Makespan.Seconds())
			fig.add(tr+"/makespan/ppb", ppb.Makespan.Seconds())
			fig.add(tr+"/readp99/ppb", ppb.ReadP99.Seconds())
			fig.add(tr+"/writep99/ppb", ppb.WriteP99.Seconds())
			fig.add(tr+"/qdelayp99/conv", conv.QueueDelayP99.Seconds())
			fig.add(tr+"/qdelayp99/ppb", ppb.QueueDelayP99.Seconds())
			tbl.AddRow(tr, qd, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				ppb.ReadP99, ppb.WriteP99, conv.QueueDelayP99, ppb.QueueDelayP99)
		}
	}
	return fig, nil
}

// DispatchPolicies is the policy axis of experiments a6 and a7, frozen
// to the single-tenant policies those goldens were recorded over. It
// deliberately does NOT alias vblock.DispatchPolicyNames anymore:
// tenant-partition joined the registry for the multi-tenant sweep (a10),
// and on a single-tenant run it degenerates to least-loaded — sweeping
// it in a6/a7 would double a column and shift the golden fixtures for
// no information. TestDispatchByName still covers every registered name.
var DispatchPolicies = []string{"striped", "least-loaded", "hotcold-affinity"}

// DispatchSweepDepths is the queue-depth axis of experiment a6: deep
// enough that block placement decides how much of the queue overlaps.
var DispatchSweepDepths = []int{4, 16}

// dispatchSweepChips matches the a5 device: placement only matters when
// there are chips to choose between.
const dispatchSweepChips = 4

// DispatchSweep (experiment a6) measures the chip-dispatch policy axis:
// the same 4-chip device, both traces, conventional vs PPB, each
// dispatch policy, at queue depths 4 and 16. Round-robin striping is
// placement-blind — a hot chip stays hot no matter what the clocks say —
// so on the skewed websql trace the least-loaded policy opens fresh
// blocks on idle chips instead, lowering makespan and the queueing-delay
// tail; hot/cold affinity trades some of that balance for isolating hot
// host writes from cold GC erases.
func DispatchSweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dev := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), dispatchSweepChips).WithChips(dispatchSweepChips)
	specs := make([]RunSpec, 0, len(paperTraces)*len(DispatchPolicies)*len(DispatchSweepDepths)*2)
	for _, tr := range paperTraces {
		wl, err := s.workloadByName(tr)
		if err != nil {
			return nil, err
		}
		for _, policy := range DispatchPolicies {
			for _, qd := range DispatchSweepDepths {
				p := pairSpecs(fmt.Sprintf("dispatch-sweep/%s/%s/qd%d", tr, policy, qd), s, 16<<10, 2.0, wl)
				p[0].Device, p[1].Device = dev, dev
				p[0].QueueDepth, p[1].QueueDepth = qd, qd
				p[0].Dispatch, p[1].Dispatch = policy, policy
				specs = append(specs, p[0], p[1])
			}
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a6: chip-dispatch policy x queue depth on 4 chips (ratio 2x)",
		"trace", "dispatch", "QD", "conv makespan (s)", "ppb makespan (s)", "conv qdelay p99", "ppb qdelay p99", "ppb read p99")
	fig := newFigure("a6-dispatch-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, tr := range paperTraces {
		for _, policy := range DispatchPolicies {
			for _, qd := range DispatchSweepDepths {
				conv, ppb := results[i], results[i+1]
				i += 2
				key := fmt.Sprintf("%s/%s", tr, policy)
				fig.add(key+"/makespan/conv", conv.Makespan.Seconds())
				fig.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
				fig.add(key+"/qdelayp99/conv", conv.QueueDelayP99.Seconds())
				fig.add(key+"/qdelayp99/ppb", ppb.QueueDelayP99.Seconds())
				fig.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
				tbl.AddRow(tr, policy, qd, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
					conv.QueueDelayP99, ppb.QueueDelayP99, ppb.ReadP99)
			}
		}
	}
	return fig, nil
}

// CausalDependencyModels is the dependency axis of experiment a7 (the
// names RunSpec.Dependency accepts, legacy first so the sweep reads as
// before/after).
var CausalDependencyModels = []string{"legacy", "causal"}

// CausalDeferModes is the erase-deferral axis of experiment a7, rendered
// in series keys as "defer-off"/"defer-on".
var CausalDeferModes = []bool{false, true}

// causalSweepChips matches the a5/a6 device: dependency chains and
// deferred erases only change the timeline when ops can land on
// different chips.
const causalSweepChips = 4

// causalSweepQD is the host queue depth of experiment a7: deep enough
// (>= 4) that host reads actually queue behind GC erases, which is the
// contention erase deferral exists to relieve.
const causalSweepQD = 8

// causalDeferName renders the deferral axis for spec names and series keys.
func causalDeferName(on bool) string {
	if on {
		return "defer-on"
	}
	return "defer-off"
}

// CausalSweep (experiment a7) measures the scheduling-model axes this PR
// added: dependency model (legacy unchained booking vs causal GC
// read -> program -> erase chains) x erase deferral (head-of-line erases
// vs per-chip deferred queues committed on idle) x dispatch policy, on
// the 4-chip device at queue depth 8, websql, conventional vs PPB. The
// causal model lengthens GC chains (cross-chip copies can no longer
// start early), raising the write tail it used to understate; erase
// deferral moves multi-millisecond erases out of the read path, cutting
// read p99 — without changing a single erase, which is asserted under
// the timing-independent striped placement.
func CausalSweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	dev := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), causalSweepChips).WithChips(causalSweepChips)
	wl := s.WebSQLWorkload()
	specs := make([]RunSpec, 0, len(CausalDependencyModels)*len(CausalDeferModes)*len(DispatchPolicies)*2)
	for _, dep := range CausalDependencyModels {
		for _, deferOn := range CausalDeferModes {
			for _, policy := range DispatchPolicies {
				p := pairSpecs(fmt.Sprintf("causal-sweep/%s/%s/%s", dep, causalDeferName(deferOn), policy),
					s, 16<<10, 2.0, wl)
				p[0].Device, p[1].Device = dev, dev
				p[0].QueueDepth, p[1].QueueDepth = causalSweepQD, causalSweepQD
				p[0].Dispatch, p[1].Dispatch = policy, policy
				p[0].Dependency, p[1].Dependency = dep, dep
				p[0].DeferErases, p[1].DeferErases = deferOn, deferOn
				specs = append(specs, p[0], p[1])
			}
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a7: dependency model x erase deferral x dispatch (websql, 4 chips, QD 8)",
		"dependency", "deferral", "dispatch", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv erases", "ppb erases")
	fig := newFigure("a7-causal-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, dep := range CausalDependencyModels {
		for _, deferOn := range CausalDeferModes {
			for _, policy := range DispatchPolicies {
				conv, ppb := results[i], results[i+1]
				i += 2
				key := dep + "/" + causalDeferName(deferOn)
				fig.add(key+"/makespan/conv", conv.Makespan.Seconds())
				fig.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
				fig.add(key+"/readp99/conv", conv.ReadP99.Seconds())
				fig.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
				fig.add(key+"/writep99/ppb", ppb.WriteP99.Seconds())
				fig.add(key+"/erases/conv", float64(conv.Erases))
				fig.add(key+"/erases/ppb", float64(ppb.Erases))
				tbl.AddRow(dep, causalDeferName(deferOn), policy, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
					conv.ReadP99, ppb.ReadP99, conv.Erases, ppb.Erases)
			}
		}
	}
	return fig, nil
}

// IntraChipPlaneCounts is the plane axis of experiment a8: serial chips
// first, so the sweep reads as the pre-plane baseline plus overlap.
var IntraChipPlaneCounts = []int{1, 2, 4}

// IntraChipSuspendModes is the suspend-policy axis of experiment a8
// (the names RunSpec.Suspend accepts; "off" is the a7 causal baseline).
var IntraChipSuspendModes = []string{"off", "erase"}

// intraChipChips matches the a5/a6/a7 device so a8's planes=1,
// suspend-off corner is directly comparable to the a7 causal baseline.
const intraChipChips = 4

// intraChipQD is the host queue depth of experiment a8: deep enough
// that host reads actually land while multi-millisecond GC erases are
// in flight — the contention suspend-resume exists to relieve.
const intraChipQD = 8

// IntraChipSweep (experiment a8) measures the intra-chip parallelism
// axes: plane count (ops on distinct planes of one chip overlap within
// the reordering window) x erase suspend policy (an incoming read may
// preempt an in-flight erase at suspend/resume cost), on the 4-chip
// device at queue depth 8, websql, conventional vs PPB, causal GC
// dependencies, erase deferral off so erases sit head-of-line — exactly
// where suspension bites. Striped dispatch keeps block placement
// timing-independent, so erase counts must be identical across every
// cell of the sweep: planes and suspension move only time, never data.
func IntraChipSweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	base := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), intraChipChips).WithChips(intraChipChips)
	wl := s.WebSQLWorkload()
	specs := make([]RunSpec, 0, len(IntraChipPlaneCounts)*len(IntraChipSuspendModes)*2)
	for _, planes := range IntraChipPlaneCounts {
		dev := base.WithPlanes(planes)
		for _, susp := range IntraChipSuspendModes {
			p := pairSpecs(fmt.Sprintf("intrachip-sweep/p%d/%s", planes, susp), s, 16<<10, 2.0, wl)
			p[0].Device, p[1].Device = dev, dev
			p[0].QueueDepth, p[1].QueueDepth = intraChipQD, intraChipQD
			p[0].Dispatch, p[1].Dispatch = "striped", "striped"
			p[0].Suspend, p[1].Suspend = susp, susp
			specs = append(specs, p[0], p[1])
		}
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a8: plane count x erase suspend (websql, 4 chips, QD 8)",
		"planes", "suspend", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv suspends", "ppb suspends", "conv erases", "ppb erases")
	fig := newFigure("a8-intrachip-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, planes := range IntraChipPlaneCounts {
		for _, susp := range IntraChipSuspendModes {
			conv, ppb := results[i], results[i+1]
			i += 2
			key := fmt.Sprintf("p%d/%s", planes, susp)
			fig.add(key+"/makespan/conv", conv.Makespan.Seconds())
			fig.add(key+"/makespan/ppb", ppb.Makespan.Seconds())
			fig.add(key+"/readp99/conv", conv.ReadP99.Seconds())
			fig.add(key+"/readp99/ppb", ppb.ReadP99.Seconds())
			fig.add(key+"/suspends/conv", float64(conv.Suspends))
			fig.add(key+"/suspends/ppb", float64(ppb.Suspends))
			fig.add(key+"/erases/conv", float64(conv.Erases))
			fig.add(key+"/erases/ppb", float64(ppb.Erases))
			tbl.AddRow(planes, susp, conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				conv.ReadP99, ppb.ReadP99, conv.Suspends, ppb.Suspends, conv.Erases, ppb.Erases)
		}
	}
	return fig, nil
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
	tbl.AddRow("Data transfer rate", "533 M (listed per Table 1; not charged per op — DESIGN.md §5)")
	tbl.AddRow("Block erase time", fmt.Sprintf("%v", cfg.EraseLatency))
	tbl.AddRow("Gate stack layers", fmt.Sprintf("%d", cfg.Layers))
	fig := newFigure("table-1", tbl)
	return fig
}

// Experiments maps experiment IDs to their functions; cmd/ppbench and the
// benchmarks iterate this.
// Paper figures 12–18 and motivation figure 3 run at paper scale (minutes
// each under -short-unfriendly replay), so their full series are pinned by
// shape tests at smoke scale instead of byte-exact goldens; the a* ablation
// and sweep rows below are golden-pinned (testdata/golden/<id>.json,
// re-record with go test ./internal/harness -run TestGoldenFigures -update).
var Experiments = map[string]func(Scale) (*FigureResult, error){
	"12":  Figure12,          //flashvet:nogolden — paper-scale; shape pinned by TestFigure12ShapeHolds
	"13":  Figure13,          //flashvet:nogolden — paper-scale; hot/cold split pinned by TestFigure12ShapeHolds companions and determinism tests
	"14":  Figure14,          //flashvet:nogolden — paper-scale; shape pinned by TestFigure14ShapeHolds
	"15":  Figure15,          //flashvet:nogolden — paper-scale; write-delta pinned by TestFigure15WriteDeltaSmall
	"16":  Figure16,          //flashvet:nogolden — paper-scale; replay path covered by TestFiguresDeterministicAcrossParallelism
	"17":  Figure17,          //flashvet:nogolden — paper-scale; replay path covered by TestFiguresDeterministicAcrossParallelism
	"18":  Figure18,          //flashvet:nogolden — paper-scale; erase counts pinned by TestFigure18EraseCounts
	"3":   MotivationFigure3, //flashvet:nogolden — paper-scale; shape pinned by TestMotivationFigure3Shape
	"a1":  AblationSplit,
	"a2":  AblationIdentifier,
	"a3":  AblationLayers,
	"a4":  ChipSweep,
	"a5":  QDSweep,
	"a6":  DispatchSweep,
	"a7":  CausalSweep,
	"a8":  IntraChipSweep,
	"a9":  ReliabilitySweep,
	"a10": TenantSweep,
}

// ExperimentOrder is the presentation order for "run everything".
var ExperimentOrder = []string{"12", "13", "14", "15", "16", "17", "18", "3", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"}
