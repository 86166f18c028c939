// Command ppbench regenerates the paper's evaluation artifacts: every
// figure of the DAC'17 PPB paper plus this reproduction's motivation
// study and ablations.
//
// Usage:
//
//	ppbench [-fig all|3|12|13|14|15|16|17|18|a1|a2|...|a10] [-scale quick|bench|paper]
//	        [-divisor N] [-turnover F] [-seed N] [-parallel N]
//	        [-json] [-out BENCH_1.json]
//
// Examples:
//
//	ppbench                       # all experiments at bench scale
//	ppbench -fig 12 -scale quick  # just Figure 12, CI-sized
//	ppbench -scale paper          # full 64 GB Table 1 device (slow)
//	ppbench -parallel 8           # run each figure's sims on 8 workers
//	ppbench -json                 # also write BENCH_1.json with per-figure
//	                              # wall times and hot-path microbenchmarks
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
	"testing"
	"time"

	"ppbflash"
)

// benchReport is the schema of the -json output: a perf trajectory
// snapshot future changes can regress against.
type benchReport struct {
	Schema      string            `json:"schema"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Scale       string            `json:"scale"`
	Divisor     int               `json:"divisor"`
	Turnover    float64           `json:"turnover"`
	Seed        int64             `json:"seed"`
	Parallelism int               `json:"parallelism"`
	Micro       []microBenchEntry `json:"microbench"`
	Figures     []figureEntry     `json:"figures"`
}

type microBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type figureEntry struct {
	ID     string               `json:"id"`
	WallMS float64              `json:"wall_ms"`
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
		Schema:      "ppbench/v1",
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
			WallMS:    float64(wall.Microseconds()) / 1000,
			Series:    fig.Series,
			OpsPerSec: fig.Throughput,
		})
	}

	if opts.json {
		fmt.Println("running hot-path microbenchmarks...")
		report.Micro = microBenchmarks()
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
	json      bool
	out       string
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
	fs.BoolVar(&opts.json, "json", false, "write a machine-readable benchmark report")
	fs.StringVar(&opts.out, "out", "BENCH_1.json", "report path for -json")
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

// microBenchmarks measures the raw page-op throughput of the simulator
// (cost floor), of the full PPB strategy, of the retried-read hot path
// under the reliability model, of the multi-plane/suspend booking, of
// the discrete-event replay loop itself, and of that loop under the
// four-tenant stream compositor. It shares the loops and configurations
// with the repo's BenchmarkDevicePageOps/BenchmarkPPBPageOps/
// BenchmarkReliabilityPageOps/BenchmarkIntraChipPageOps/
// BenchmarkEventLoop/BenchmarkCompositorEventLoop through the ppbflash
// constructors, so the -json report and the CI benchmarks always
// measure the same thing.
func microBenchmarks() []microBenchEntry {
	runPageOps := func(f ppbflash.FTL, n int) error { return ppbflash.RunPageOps(f, n) }
	out := make([]microBenchEntry, 0, 6)
	for _, mb := range []struct {
		name  string
		build func() (ppbflash.FTL, error)
		run   func(ppbflash.FTL, int) error
	}{
		{"DevicePageOps", func() (ppbflash.FTL, error) { return ppbflash.NewPageOpsFTL(ppbflash.KindConventional) }, runPageOps},
		{"PPBPageOps", func() (ppbflash.FTL, error) { return ppbflash.NewPageOpsFTL(ppbflash.KindPPB) }, runPageOps},
		{"ReliabilityPageOps", ppbflash.NewReliabilityPageOpsFTL, runPageOps},
		{"IntraChipPageOps", ppbflash.NewIntraChipPageOpsFTL, runPageOps},
		{"EventLoop",
			func() (ppbflash.FTL, error) { return ppbflash.NewPageOpsFTL(ppbflash.KindConventional) },
			func(f ppbflash.FTL, n int) error { return ppbflash.RunEventLoop(f, ppbflash.NewReplayMetrics(), n) }},
		{"CompositorEventLoop",
			ppbflash.NewTenantPageOpsFTL,
			func(f ppbflash.FTL, n int) error {
				return ppbflash.RunCompositorEventLoop(f, ppbflash.NewReplayMetrics(), n)
			}},
	} {
		build, run := mb.build, mb.run
		res := testing.Benchmark(func(b *testing.B) {
			f, err := build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := run(f, b.N); err != nil {
				b.Fatal(err)
			}
		})
		out = append(out, microBenchEntry{
			Name:        mb.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		fmt.Printf("  %-18s %10.1f ns/op  %3d allocs/op\n", mb.name,
			float64(res.T.Nanoseconds())/float64(res.N), res.AllocsPerOp())
	}
	return out
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
