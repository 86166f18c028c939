package harness

import (
	"errors"
	"fmt"

	"ppbflash/internal/ftl"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
)

// ReliabilityProfiles is the BER-profile axis of experiment a9 (the
// enabled presets of nand.ReliabilityProfileByName; "off" is covered by
// every other experiment).
var ReliabilityProfiles = []string{"low", "high"}

// ReliabilityWearPolicies is the wear-policy axis of experiment a9.
var ReliabilityWearPolicies = []ftl.WearPolicy{ftl.WearNone, ftl.WearAware, ftl.WearThresholdSwap}

// ReliabilityCyclingTurnovers scales the scale's write turnover for the
// P/E-cycling axis of experiment a9: the same device and trace shape at
// half and 1.5x the write volume, so per-block erase counts differ and
// the cycling term of the RBER model becomes visible in the retry rate.
var ReliabilityCyclingTurnovers = []float64{0.5, 1.5}

// reliabilityLifetimeDivisor shrinks the a9 lifetime-probe device below
// the sweep's replay device: the probe writes every block to its P/E
// limit, so its cost scales with TotalPages x PECycleLimit rather than
// with the trace length.
const reliabilityLifetimeDivisor = 4

// reliabilityLifetimePELimit replaces the profile's P/E limit inside the
// lifetime probe. The presets keep their limits above replay wear so
// the sweep measures retry behavior on an intact device; the probe's
// whole point is wear-out, and a low limit bounds its cost to
// TotalPages x limit programs per policy.
const reliabilityLifetimePELimit = 24

// lifetimeProbe measures the a9 lifetime proxy for one wear policy:
// host page writes sustained before the capacity floor. The whole
// logical space is written once (cold data that a wear-oblivious GC
// never touches), then a hot eighth of it is rewritten round-robin
// until the FTL reports ErrNoSpace — under the profile's P/E limit
// (replaced by reliabilityLifetimePELimit) blocks retire as they wear
// out, so the write count measures how well the wear policy spreads
// erases before capacity collapses. The cap is a safety net (2x the
// device's total program endowment) that a functioning retirement path
// never reaches.
func lifetimeProbe(cfg nand.Config, wear ftl.WearPolicy, prof nand.ReliabilityConfig, seed int64) (uint64, error) {
	dev, err := nand.NewDevice(cfg)
	if err != nil {
		return 0, err
	}
	prof.PECycleLimit = reliabilityLifetimePELimit
	f, err := buildFTL(RunSpec{
		Kind: KindConventional,
		FTLOptions: ftl.Options{
			OverProvision:   0.2,
			Wear:            wear,
			Reliability:     &prof,
			ReliabilitySeed: seed,
		},
	}, dev)
	if err != nil {
		return 0, err
	}
	span := f.LogicalPages()
	for lpn := uint64(0); lpn < span; lpn++ {
		if err := f.Write(lpn, 1<<20); err != nil {
			if errors.Is(err, ftl.ErrNoSpace) {
				return 0, fmt.Errorf("harness: lifetime probe died during cold fill: %w", err)
			}
			return 0, err
		}
	}
	hot := span / 8
	if hot < 1 {
		hot = 1
	}
	limit := cfg.TotalPages() * uint64(prof.PECycleLimit+1) * 2
	var writes uint64
	for writes < limit {
		if err := f.Write(writes%hot, 4096); err != nil {
			if errors.Is(err, ftl.ErrNoSpace) {
				return writes, nil
			}
			return 0, err
		}
		writes++
	}
	return writes, nil
}

// ReliabilitySweep (experiment a9) measures the reliability engine:
// BER profile (low, high) x wear policy (none, wear-aware,
// threshold-swap) x FTL (conventional, PPB) on the websql trace,
// reporting retry rate, mean retries per retried read, uncorrectable
// reads and retired blocks. Two extra runs sweep the write turnover
// (P/E-cycling axis: more cycles -> higher RBER -> higher retry rate),
// and three sequential probes measure the lifetime proxy — host writes
// sustained before the capacity floor under P/E-limit retirement — per
// wear policy. Greedy GC never touches write-once cold blocks, so only
// the threshold-swap static policy spreads wear into them and the
// lifetime proxy responds; wear-aware victim scoring only flattens wear
// among already-churning blocks.
func ReliabilitySweep(s Scale) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wl := s.WebSQLWorkload()
	dev := s.DeviceConfig(16<<10, 2.0)
	kinds := []FTLKind{KindConventional, KindPPB}
	high, err := nand.ReliabilityProfileByName("high")
	if err != nil {
		return nil, err
	}
	specs := make([]RunSpec, 0, len(ReliabilityProfiles)*len(ReliabilityWearPolicies)*len(kinds)+len(ReliabilityCyclingTurnovers))
	for _, name := range ReliabilityProfiles {
		prof, err := nand.ReliabilityProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, wear := range ReliabilityWearPolicies {
			for _, kind := range kinds {
				specs = append(specs, RunSpec{
					Name:     fmt.Sprintf("reliability-sweep/%s/%s/%s", name, wear, kind),
					Device:   dev,
					Kind:     kind,
					Workload: wl,
					Prefill:  true,
					FTLOptions: ftl.Options{
						Wear:            wear,
						Reliability:     &prof,
						ReliabilitySeed: s.Seed,
					},
				})
			}
		}
	}
	// P/E-cycling axis: the high profile under the default policies at
	// scaled write volumes. More turnover means more erases per block,
	// so the cycling term of the RBER model must raise the retry rate.
	for _, mult := range ReliabilityCyclingTurnovers {
		cs := s
		cs.WriteTurnover = s.WriteTurnover * mult
		specs = append(specs, RunSpec{
			Name:       fmt.Sprintf("reliability-sweep/cycling/%gx", mult),
			Device:     dev,
			Kind:       KindConventional,
			Workload:   cs.WebSQLWorkload(),
			Prefill:    true,
			FTLOptions: ftl.Options{Reliability: &high, ReliabilitySeed: s.Seed},
		})
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Experiment a9: reliability engine — BER profile x wear policy x FTL (websql, ratio 2x)",
		"point", "retry rate", "mean retries", "uncorrectable", "retired blocks", "lifetime writes")
	fig := newFigure("a9-reliability-sweep", tbl)
	fig.recordThroughput(specs, results)
	i := 0
	for _, prof := range ReliabilityProfiles {
		for _, wear := range ReliabilityWearPolicies {
			for _, kind := range kinds {
				res := results[i]
				i++
				key := fmt.Sprintf("%s/%s/%s", prof, wear, kind)
				fig.add(key+"/retryrate", res.RetryRate)
				fig.add(key+"/meanretry", res.MeanRetrySteps)
				fig.add(key+"/uncorrectable", float64(res.UncorrectableReads))
				fig.add(key+"/retired", float64(res.RetiredBlocks))
				tbl.AddRow(key, fmt.Sprintf("%.4f%%", res.RetryRate*100),
					fmt.Sprintf("%.3f", res.MeanRetrySteps),
					res.UncorrectableReads, res.RetiredBlocks, "-")
			}
		}
	}
	for _, mult := range ReliabilityCyclingTurnovers {
		res := results[i]
		i++
		fig.add("cycling/retryrate", res.RetryRate)
		tbl.AddRow(fmt.Sprintf("cycling/%gx/high/conventional", mult),
			fmt.Sprintf("%.4f%%", res.RetryRate*100),
			fmt.Sprintf("%.3f", res.MeanRetrySteps),
			res.UncorrectableReads, res.RetiredBlocks, "-")
	}
	// Lifetime proxy: sequential by design — each probe runs a device to
	// its capacity floor, and three small probes are cheaper than one
	// replay point above.
	probeDev := dev
	probeDev.BlocksPerChip /= reliabilityLifetimeDivisor
	if probeDev.BlocksPerChip < 16 {
		probeDev.BlocksPerChip = 16
	}
	for _, wear := range ReliabilityWearPolicies {
		writes, err := lifetimeProbe(probeDev, wear, high, s.Seed)
		if err != nil {
			return nil, err
		}
		fig.add("lifetime/"+wear.String(), float64(writes))
		tbl.AddRow("lifetime/high/"+wear.String(), "-", "-", "-", "-", writes)
	}
	return fig, nil
}
