// Command perfbench is the repository benchmark. It replays one workload
// through the simulator on a single goroutine, scores the modelled
// device's simulated metrics next to the simulator's host time, checks its
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics of the traced replay with --trace 1.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload websql-ppb --seed 1 --seconds 30 --trace 0
//
// One run replays the seed's input repeatedly for --seconds (at least
// minReps times) and reports host-time medians, then replays a second
// seed, which must change the simulated metrics, and a traced, profiled
// replay, which must reproduce them exactly. Every workload runs at the
// harness bench preset: the Table 1 device with its block count divided
// by 32, a 2 GB-class device.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ppbflash/internal/harness"
)

// minReps is the fewest untraced replays a run measures, so every median
// has at least this many samples however long one replay takes.
const minReps = 5

// overProvision is the FTL default, set explicitly so the input can be
// sized for the logical space before the FTL exists.
const overProvision = 0.10

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 0, "input seed (>= 0)")
		seconds  = flag.Float64("seconds", 10, "how long the untraced replays are repeated")
		traceOut = flag.Int("trace", 0, "1 prints the per-layer metrics of the traced replay instead of the end-to-end ones")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seed < 0 || *seconds <= 0 || *traceOut < 0 || *traceOut > 1) {
		err = fmt.Errorf("need --seed >= 0, --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep, err := run(w, harness.BenchScale, *seed, budget, filepath.Join(".bench_build", "runs"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout, *traceOut == 1)
}
