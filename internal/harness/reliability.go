package harness

import (
	"errors"
	"fmt"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
)

// reliabilityProfiles is the BER-profile axis of experiment a9 (the
// enabled presets of nand.ReliabilityProfileByName; "off" is covered by
// every other experiment).
var reliabilityProfiles = []string{"low", "high"}

// reliabilityWearPolicies is the wear-policy axis of experiment a9.
var reliabilityWearPolicies = []ftl.WearPolicy{ftl.WearNone, ftl.WearAware, ftl.WearThresholdSwap}

// reliabilityCyclingTurnovers scales the scale's write turnover for the
// P/E-cycling axis of experiment a9: the same device and trace shape at
// half and 1.5x the write volume, so per-block erase counts differ and
// the cycling term of the RBER model becomes visible in the retry rate.
var reliabilityCyclingTurnovers = []float64{0.5, 1.5}

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
	if err := prefill(f); err != nil {
		if errors.Is(err, ftl.ErrNoSpace) {
			return 0, fmt.Errorf("harness: lifetime probe died during cold fill: %w", err)
		}
		return 0, err
	}
	hot := f.LogicalPages() / 8
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

// reliabilitySweep (experiment a9) measures the reliability engine:
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
func reliabilitySweep(s Scale) (*FigureResult, error) {
	high, err := nand.ReliabilityProfileByName("high")
	if err != nil {
		return nil, err
	}
	sw := newSweep("a9-reliability-sweep", "Experiment a9: reliability engine — BER profile x wear policy x FTL (websql, ratio 2x)",
		"point", "retry rate", "mean retries", "uncorrectable", "retired blocks", "lifetime writes")
	retryRow := func(key string, res Result) {
		sw.Table.AddRow(key, fmt.Sprintf("%.4f%%", res.RetryRate*100),
			fmt.Sprintf("%.3f", res.MeanRetrySteps),
			res.UncorrectableReads, res.RetiredBlocks, "-")
	}
	dev := s.DeviceConfig(16<<10, 2.0)
	for _, name := range reliabilityProfiles {
		prof, err := nand.ReliabilityProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, wear := range reliabilityWearPolicies {
			for _, kind := range []FTLKind{KindConventional, KindPPB} {
				key := fmt.Sprintf("%s/%s/%s", name, wear, kind)
				sw.single(RunSpec{
					Name: "reliability-sweep/" + key, Device: dev, Kind: kind, Workload: s.WebSQLWorkload(),
					FTLOptions: ftl.Options{Wear: wear, Reliability: &prof, ReliabilitySeed: s.Seed},
				}, func(res Result) {
					sw.add(key+"/retryrate", res.RetryRate)
					sw.add(key+"/meanretry", res.MeanRetrySteps)
					sw.add(key+"/uncorrectable", float64(res.UncorrectableReads))
					sw.add(key+"/retired", float64(res.RetiredBlocks))
					retryRow(key, res)
				})
			}
		}
	}
	// P/E-cycling axis: the high profile under the default policies at
	// scaled write volumes. More turnover means more erases per block,
	// so the cycling term of the RBER model must raise the retry rate.
	for _, mult := range reliabilityCyclingTurnovers {
		cs := s
		cs.WriteTurnover = s.WriteTurnover * mult
		sw.single(RunSpec{
			Name: fmt.Sprintf("reliability-sweep/cycling/%gx", mult), Device: dev,
			Kind: KindConventional, Workload: cs.WebSQLWorkload(),
			FTLOptions: ftl.Options{Reliability: &high, ReliabilitySeed: s.Seed},
		}, func(res Result) {
			sw.add("cycling/retryrate", res.RetryRate)
			retryRow(fmt.Sprintf("cycling/%gx/high/conventional", mult), res)
		})
	}
	fig, err := sw.run(s)
	if err != nil {
		return nil, err
	}
	// Lifetime proxy: sequential by design — each probe runs a device to
	// its capacity floor, and three small probes are cheaper than one
	// replay point above.
	for _, wear := range reliabilityWearPolicies {
		writes, err := lifetimeProbe(dev.Scaled(reliabilityLifetimeDivisor), wear, high, s.Seed)
		if err != nil {
			return nil, err
		}
		fig.add("lifetime/"+wear.String(), float64(writes))
		fig.Table.AddRow("lifetime/high/"+wear.String(), "-", "-", "-", "-", writes)
	}
	return fig, nil
}
