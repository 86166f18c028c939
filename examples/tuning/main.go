// Tuning: explore the PPB knobs the paper mentions but does not sweep —
// the virtual-block split factor (§3.3.1 "a physical block can be
// divided into multiple virtual blocks rather than two"), the
// first-stage identifier (§3.1 "compatible with any hot/cold data
// identification mechanism"), and the chip-dispatch policy that decides
// where every fresh block lands on a multi-chip device.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"ppbflash"
)

func main() {
	scale := ppbflash.Scale{DeviceDivisor: 128, WriteTurnover: 1.5, Seed: 1}
	dev := scale.DeviceConfig(16<<10, 2.0)
	workload := func(logicalBytes uint64) ppbflash.Generator {
		return ppbflash.NewWebSQL(ppbflash.WebSQLConfig{
			LogicalBytes: logicalBytes, Requests: 150_000, Seed: scale.Seed,
		})
	}

	baseline, err := ppbflash.Run(ppbflash.RunSpec{
		Name: "tuning/conventional", Device: dev,
		Kind: ppbflash.KindConventional, Workload: workload, Prefill: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conventional baseline: read total %v\n\n", baseline.ReadTotal)

	fmt.Println("virtual-block split factor (K):")
	for _, k := range []int{2, 4, 8} {
		res, err := ppbflash.Run(ppbflash.RunSpec{
			Name: fmt.Sprintf("tuning/k%d", k), Device: dev, Kind: ppbflash.KindPPB,
			PPBOptions: ppbflash.PPBOptions{SplitFactor: k},
			Workload:   workload, Prefill: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  K=%d: read %v (%+.2f%% vs conventional), %d migrations, %d diversions\n",
			k, res.ReadTotal,
			(res.ReadTotal.Seconds()/baseline.ReadTotal.Seconds()-1)*100,
			res.Migrations, res.Diversions)
	}

	fmt.Println("\nfirst-stage identifier:")
	type namedIdent struct {
		name  string
		ident ppbflash.Identifier
	}
	idents := []namedIdent{
		{"size-check (paper)", ppbflash.SizeCheck{ThresholdBytes: dev.PageSize}},
		{"everything-hot", staticIdent{hot: true}},
		{"everything-cold", staticIdent{hot: false}},
	}
	for _, id := range idents {
		res, err := ppbflash.Run(ppbflash.RunSpec{
			Name: "tuning/" + id.name, Device: dev, Kind: ppbflash.KindPPB,
			PPBOptions: ppbflash.PPBOptions{Identifier: id.ident},
			Workload:   workload, Prefill: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s read %v (%+.2f%% vs conventional), fast-read share %.1f%%\n",
			id.name, res.ReadTotal,
			(res.ReadTotal.Seconds()/baseline.ReadTotal.Seconds()-1)*100,
			res.FastReadShare*100)
	}
	fmt.Println("\na degenerate identifier erases the benefit: the four-level split")
	fmt.Println("needs a meaningful first-stage hot/cold signal to work with.")

	fmt.Println("\nchip-dispatch policy (4 chips, queue depth 16):")
	chipDev := dev.WithChips(4)
	for _, name := range ppbflash.DispatchPolicyNames {
		policy, err := ppbflash.DispatchByName(name)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ppbflash.Run(ppbflash.RunSpec{
			Name: "tuning/" + name, Device: chipDev, Kind: ppbflash.KindPPB,
			FTLOptions: ppbflash.FTLOptions{Dispatch: policy},
			Workload:   workload, Prefill: true, QueueDepth: 16,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-17s makespan %v, queue delay p99 %v, read p99 %v\n",
			name, res.Makespan, res.QueueDelayP99, res.ReadP99)
	}
	fmt.Println("\nstriping is placement-blind; following the chip clocks (least-loaded)")
	fmt.Println("opens fresh blocks where the device is idle, which pays off exactly")
	fmt.Println("when the workload keeps some chips busier than others.")
}

// staticIdent is a degenerate Identifier for the demonstration.
type staticIdent struct{ hot bool }

func (s staticIdent) Name() string { return "static" }
func (s staticIdent) Classify(uint64, int) ppbflash.Area {
	if s.hot {
		return ppbflash.AreaHot
	}
	return ppbflash.AreaCold
}
