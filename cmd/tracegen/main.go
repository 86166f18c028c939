// Command tracegen emits the synthetic MSR-Cambridge-style traces used
// by this reproduction (the stand-ins for the paper's "media server" and
// "web/SQL" traces) in either MSR CSV or the simple text format, so they
// can be inspected, archived, or replayed through cmd/flashsim.
//
// Usage:
//
//	tracegen -workload websql -requests 100000 -logical-mb 1024 \
//	         -format msr -o websql.csv
//
// Every flag is checked before the output file is created: an unknown
// -workload or -format, -requests below 1 or -logical-mb outside
// [1, 2^30] exits 2 with the valid names or range and leaves -o alone.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ppbflash"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// maxLogicalMB bounds -logical-mb (1 PiB) well below the 2^44 MiB at
// which the byte size would wrap around 2^64.
const maxLogicalMB = 1 << 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in, returning the
// exit status: 2 for bad flags, 1 for output errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName   = fs.String("workload", "websql", "websql, mediaserver or uniform")
		requests = fs.Int("requests", 100_000, "number of requests to emit")
		logical  = fs.Int64("logical-mb", 1024, "logical disk size in MiB")
		seed     = fs.Int64("seed", 1, "generator seed")
		format   = fs.String("format", "msr", "output format: msr or simple")
		out      = fs.String("o", "-", "output file ('-' = stdout)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if err := checkFlags(*format, *requests, *logical); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	gen, err := buildGenerator(*wlName, uint64(*logical)<<20, *requests, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}

	reqs := collect(gen)
	if *format == "msr" {
		err = trace.WriteMSR(w, gen.Name(), 0, reqs)
	} else {
		err = trace.WriteSimple(w, reqs)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st := trace.Summarize(reqs)
	fmt.Fprintf(stderr, "tracegen: %d requests (%.0f%% reads), %.1f MiB read, %.1f MiB written, span %.1f MiB\n",
		st.Requests, st.ReadRatio()*100,
		float64(st.ReadBytes)/(1<<20), float64(st.WriteBytes)/(1<<20), float64(st.MaxEnd)/(1<<20))
	return 0
}

// checkFlags rejects an unknown -format and out-of-range sizes with the
// valid names or range. The generators would otherwise replace
// -requests 0 with their default count and emit nothing for a negative
// one, and a negative -logical-mb would wrap to a 2^64-byte space.
func checkFlags(format string, requests int, logicalMB int64) error {
	if format != "msr" && format != "simple" {
		return fmt.Errorf("tracegen: unknown format %q (want msr or simple)", format)
	}
	if requests < 1 {
		return fmt.Errorf("tracegen: -requests %d out of range: want at least 1", requests)
	}
	if logicalMB < 1 || logicalMB > maxLogicalMB {
		return fmt.Errorf("tracegen: -logical-mb %d out of range [1, %d]", logicalMB, maxLogicalMB)
	}
	return nil
}

func buildGenerator(name string, logicalBytes uint64, requests int, seed int64) (ppbflash.Generator, error) {
	switch name {
	case "websql", "web":
		return ppbflash.NewWebSQL(ppbflash.WebSQLConfig{
			LogicalBytes: logicalBytes, Requests: requests, Seed: seed,
		}), nil
	case "mediaserver", "media":
		return ppbflash.NewMediaServer(ppbflash.MediaServerConfig{
			LogicalBytes: logicalBytes, Requests: requests, Seed: seed,
		}), nil
	case "uniform":
		return workload.NewUniform(workload.UniformConfig{
			LogicalBytes: logicalBytes, Requests: requests, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("tracegen: unknown workload %q (want websql, mediaserver or uniform)", name)
	}
}

func collect(g ppbflash.Generator) []ppbflash.Request {
	var out []ppbflash.Request
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}
