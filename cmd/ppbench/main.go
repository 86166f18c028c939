// Command ppbench regenerates the paper's evaluation artifacts: every
// figure of the DAC'17 PPB paper plus this reproduction's motivation
// study and ablations.
//
// Usage:
//
//	ppbench [-fig all|3|12|13|14|15|16|17|18|a1|a2|...|a10] [-scale quick|bench|paper]
//	        [-divisor N] [-turnover F] [-seed N] [-parallel N]
//	        [-out BENCH_N.json]
//
// Examples:
//
//	ppbench                       # all experiments at bench scale
//	ppbench -fig 12 -scale quick  # just Figure 12, CI-sized
//	ppbench -scale paper          # full 64 GB Table 1 device (slow)
//	ppbench -parallel 8           # run each figure's sims on 8 workers
//	ppbench -out BENCH_N.json     # also write every figure's series and
//	                              # simulated ops/s as a JSON report
//
// Besides the Go version and GOMAXPROCS, the report holds simulated
// numbers only, so two runs with the same flags on one host write the
// same bytes. The "[id in Xms]" line after each table is the figure's
// host wall time; it is printed, not recorded.
//
// An unknown -scale or -fig, a negative -divisor, -turnover or
// -parallel, or a NaN or infinite -turnover exits 2 before any output;
// 0 keeps the preset for -divisor and -turnover, and means GOMAXPROCS
// for -parallel. An explicit -seed always applies, -seed 0 included.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"ppbflash"
)

// benchReport is the schema of the -out report: the simulated series of
// every figure run, the ledger later changes compare their output with.
type benchReport struct {
	Schema      string        `json:"schema"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Scale       string        `json:"scale"`
	Divisor     int           `json:"divisor"`
	Turnover    float64       `json:"turnover"`
	Seed        int64         `json:"seed"`
	Parallelism int           `json:"parallelism"`
	Figures     []figureEntry `json:"figures"`
}

type figureEntry struct {
	ID     string               `json:"id"`
	Series map[string][]float64 `json:"series"`
	// OpsPerSec is the simulated device-ops/second of every run in the
	// figure's sweep, keyed by spec name — the deterministic throughput
	// signal, kept out of Series so golden fixtures stay byte-stable.
	OpsPerSec map[string]float64 `json:"ops_per_sec"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale := opts.scale

	fmt.Println(ppbflash.TableOne().Table)
	fmt.Printf("scale: divisor=%d (device %.1f GB), turnover=%.1fx, seed=%d, parallel=%d\n\n",
		scale.DeviceDivisor,
		float64(scale.DeviceConfig(16<<10, 2).TotalBytes())/float64(1<<30),
		scale.WriteTurnover, scale.Seed, effectiveParallelism(scale.Parallelism))

	report := benchReport{
		Schema:      "ppbench/v2",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scale:       opts.scaleName,
		Divisor:     scale.DeviceDivisor,
		Turnover:    scale.WriteTurnover,
		Seed:        scale.Seed,
		Parallelism: effectiveParallelism(scale.Parallelism),
	}

	ids := ppbflash.ExperimentIDs()
	if opts.fig != "all" {
		ids = []string{opts.fig}
	}
	for _, id := range ids {
		start := time.Now()
		fig, err := ppbflash.Experiment(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Println(fig.Table)
		fmt.Printf("  [%s in %v]\n\n", fig.ID, wall.Round(time.Millisecond))
		report.Figures = append(report.Figures, figureEntry{
			ID:        fig.ID,
			Series:    fig.Series,
			OpsPerSec: fig.Throughput,
		})
	}

	if opts.out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: encoding report: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(opts.out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: writing report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", opts.out)
	}
}

// options is a parsed command line.
type options struct {
	fig       string
	scaleName string
	scale     ppbflash.Scale // the preset with the overrides and -parallel applied
	out       string         // report path; empty writes no report
}

// parseFlags parses the command line and resolves the run's scale: the
// -scale preset, with -divisor and -turnover applied when positive and
// -seed applied whenever it is given, so -seed 0 runs seed 0. A malformed
// flag exits 2 (or 0 for -h) as flag.Parse does; an out-of-range value
// is returned as an error.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ppbench", flag.ExitOnError)
	var (
		opts     options
		divisor  = fs.Int("divisor", 0, "override device divisor (1 = full 64 GB)")
		turnover = fs.Float64("turnover", 0, "override write turnover multiple")
		seed     = fs.Int64("seed", 0, "override workload seed")
		parallel = fs.Int("parallel", 0, "concurrent simulation runs per experiment (0 = GOMAXPROCS)")
	)
	fs.StringVar(&opts.fig, "fig", "all", "experiment id (3, 12-18, a1-a10) or 'all'")
	fs.StringVar(&opts.scaleName, "scale", "bench", "preset scale: quick, bench or paper")
	fs.StringVar(&opts.out, "out", "", "write a JSON report of every figure's series to this path")
	_ = fs.Parse(args) // ExitOnError: Parse itself exits on a malformed flag

	scale, err := pickScale(opts.scaleName)
	if err == nil {
		err = checkFlags(opts.fig, *divisor, *turnover, *parallel)
	}
	if err != nil {
		return options{}, err
	}
	if *divisor > 0 {
		scale.DeviceDivisor = *divisor
	}
	if *turnover > 0 {
		scale.WriteTurnover = *turnover
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			scale.Seed = *seed
		}
	})
	scale.Parallelism = *parallel
	opts.scale = scale
	return opts, nil
}

// checkFlags rejects an unknown -fig and out-of-range overrides before
// anything is printed: the scale overrides apply only when positive, so
// a negative value would otherwise run the preset silently.
func checkFlags(fig string, divisor int, turnover float64, parallel int) error {
	if fig != "all" && !slices.Contains(ppbflash.ExperimentIDs(), fig) {
		return fmt.Errorf("ppbench: unknown -fig %q (want all or one of %v)", fig, ppbflash.ExperimentIDs())
	}
	if divisor < 0 {
		return fmt.Errorf("ppbench: -divisor %d out of range: want at least 1, or 0 for the preset", divisor)
	}
	if turnover < 0 || math.IsNaN(turnover) || math.IsInf(turnover, 0) {
		return fmt.Errorf("ppbench: -turnover %g out of range: want a finite value above 0, or 0 for the preset", turnover)
	}
	if parallel < 0 {
		return fmt.Errorf("ppbench: -parallel %d out of range: want at least 1, or 0 for GOMAXPROCS", parallel)
	}
	return nil
}

func effectiveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

func pickScale(name string) (ppbflash.Scale, error) {
	switch name {
	case "quick":
		return ppbflash.QuickScale, nil
	case "bench":
		return ppbflash.BenchScale, nil
	case "paper":
		return ppbflash.PaperScale, nil
	default:
		return ppbflash.Scale{}, fmt.Errorf("ppbench: unknown scale %q (want quick, bench or paper)", name)
	}
}
