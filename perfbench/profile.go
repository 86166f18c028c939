package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileHz is the CPU profile sampling rate of the traced replay: the
// default 100 Hz leaves a one-second replay with too few samples to split
// over the modules.
const profileHz = 1000

// cpuModules are the groups the traced replay's CPU samples are split
// into: the repository's internal packages on the replay path, "bench"
// for the benchmark's own wrappers, and "runtime" for samples with no
// repository frame at all (garbage collection, the scheduler). A package
// added to the replay path later gets a share of its own, which is not
// reported until it is listed here.
var cpuModules = []string{
	"trace", "workload", "harness", "sched", "metrics", "ftl", "core",
	"hotness", "vblock", "nand", "bench", "runtime",
}

const repoPrefix = "ppbflash/internal/"

// moduleOf returns the module a symbolized frame belongs to, or "" when
// the frame is outside the repository (runtime, standard library).
func moduleOf(frame string) string {
	if rest, ok := strings.CutPrefix(frame, repoPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(frame, "main.") {
		return "bench"
	}
	return ""
}

// cpuShares reads a CPU profile with the toolchain's `go tool pprof
// -traces` and returns each module's share of the samples and the CPU
// seconds the profile holds. Every sample counts to the innermost frame
// that belongs to a module, so map lookups count to the module that made
// them, and the math calls of error draws to nand.
func cpuShares(binary, profile string) (map[string]float64, float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, 0, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", binary, profile)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces folds `pprof -traces` output: samples are separated by
// dashed lines, and each sample's first line carries its value followed
// by the innermost frame, with the callers on the lines below.
func parseTraces(out []byte) (map[string]float64, float64, error) {
	weights := make(map[string]float64)
	var total, value float64
	var module string
	inSample := false
	flush := func() {
		if !inSample {
			return
		}
		if module == "" {
			module = "runtime"
		}
		weights[module] += value
		total += value
		inSample = false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if !inSample {
			v, ok := parseSampleValue(fields[0])
			if !ok || len(fields) < 2 {
				continue // header lines before the first sample
			}
			inSample, value, module = true, v, moduleOf(fields[1])
			continue
		}
		if module == "" {
			module = moduleOf(fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(weights))
	for m, w := range weights {
		shares[m] = w / total
	}
	return shares, total, nil
}

// parseSampleValue parses a pprof duration such as "10ms" or "1.50s".
func parseSampleValue(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, false
			}
			return v * u.scale, true
		}
	}
	return 0, false
}
