package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
)

// workload is one benchmark configuration: an FTL and an input stream
// built from the seed, on the benchmark device at host queue depth 1.
// Every workload is prefilled before its measured replay.
type workload struct {
	name string
	why  string
	ppb  bool
	// options returns the FTL options; seed feeds the reliability PRNG.
	options func(seed int64) (ftl.Options, error)
	// input returns the request generator of the scale's seed.
	input func(s harness.Scale) harness.WorkloadBuilder
	// msr replays the input from an MSR Cambridge CSV file written before
	// timing starts, the way flashsim replays a recorded trace.
	msr bool
}

// source opens a fresh copy of one prepared input stream per replay. done
// reports a latched parse error after the replay and releases the input.
type source func() (stream trace.Stream, done func() error, err error)

// benchDevice is the Table 1 device at the scale, one chip, with 16 KiB
// pages and a 2x speed ratio.
func benchDevice(s harness.Scale) nand.Config { return s.DeviceConfig(16<<10, 2.0) }

// queueDepth is the closed-loop host queue depth of every workload.
const queueDepth = 1

// workloads lists the benchmark workloads in presentation order. Each
// one's why is the reason it is in the set; BENCHMARK.json repeats it.
var workloads = []*workload{
	{
		name:    "websql-ppb",
		why:     "paper headline: PPB on websql, 1 chip QD1; write-driven GC loads core, hotness, ftl and the Zipf generator",
		ppb:     true,
		options: func(int64) (ftl.Options, error) { return ftl.Options{}, nil },
		input:   harness.Scale.WebSQLWorkload,
	},
	{
		name: "media-msr",
		why:  "read-heavy MSR CSV replay, conventional FTL, reliability high: nand read path and error draws; PPB and GC bypassed",
		options: func(seed int64) (ftl.Options, error) {
			prof, err := nand.ReliabilityProfileByName("high")
			if err != nil {
				return ftl.Options{}, err
			}
			return ftl.Options{Reliability: &prof, ReliabilitySeed: seed}, nil
		},
		// Three times the preset's write turnover gives the p999 of its
		// writes, 15% of the requests, enough samples to hold steady
		// from seed to seed.
		input: func(s harness.Scale) harness.WorkloadBuilder {
			s.WriteTurnover *= 3
			return s.MediaWorkload()
		},
		msr: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// prepare builds the input of the scale's seed before any timing starts.
func (w *workload) prepare(s harness.Scale, logicalBytes uint64, dir string) (source, error) {
	build := w.input(s)
	if !w.msr {
		return func() (trace.Stream, func() error, error) {
			return build(logicalBytes), func() error { return nil }, nil
		}, nil
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", w.name, s.Seed))
	if err := writeMSR(path, build(logicalBytes)); err != nil {
		return nil, err
	}
	return func() (trace.Stream, func() error, error) {
		in, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		st := trace.NewMSRReader(in).Stream()
		return st, func() error {
			in.Close()
			if err := st.Err(); err != nil {
				return fmt.Errorf("parse %s: %w", path, err)
			}
			return nil
		}, nil
	}, nil
}

// writeMSR writes the generator's requests as an MSR Cambridge CSV file.
func writeMSR(path string, gen trace.Stream) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewMSRWriter(out, "bench", 0)
	for {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if err := w.Write(r); err != nil {
			out.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return out.Close()
}

// buildFTL constructs the workload's FTL over dev.
func (w *workload) buildFTL(dev *nand.Device, opts ftl.Options) (ftl.FTL, error) {
	if w.ppb {
		return core.New(dev, core.Options{FTL: opts})
	}
	return ftl.NewConventional(dev, opts)
}
