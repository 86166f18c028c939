package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
)

// run measures one workload at one seed. It replays the seed's input
// untraced until budget has passed (at least minReps times), every replay
// reproducing the first one's simulated metrics. Check replays follow: the
// next seed's input must change the simulated metrics, and so must the
// next reliability seed where the workload models errors. Last, a traced,
// profiled replay must reproduce the simulated metrics exactly.
func run(w *workload, s harness.Scale, seed int64, budget time.Duration, dir string) (*report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Generators read seed 0 as "use the default", so the --seed
	// space is shifted up by one; the second seed is the next one up.
	s.Seed = seed + 1
	alt := s
	alt.Seed = seed + 2
	opts, err := w.options(s.Seed)
	if err != nil {
		return nil, err
	}
	altOpts, err := w.options(alt.Seed)
	if err != nil {
		return nil, err
	}
	opts.OverProvision, altOpts.OverProvision = overProvision, overProvision
	inputs, err := os.MkdirTemp(dir, "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(inputs)
	logical := logicalBytes(s)
	src, err := w.prepare(s, logical, inputs)
	if err != nil {
		return nil, fmt.Errorf("prepare input: %w", err)
	}
	altSrc, err := w.prepare(alt, logical, inputs)
	if err != nil {
		return nil, fmt.Errorf("prepare input: %w", err)
	}

	rep := newReport(w)
	bufs := &captureBuffers{}
	var sim simResult
	var hosts []hostResult
	deadline := time.Now().Add(budget)
	for len(hosts) < minReps || time.Now().Before(deadline) {
		got, host, err := replay(w, s, opts, src, nil, bufs)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", len(hosts)+1, err)
		}
		if len(hosts) == 0 {
			sim = got
		} else if got != sim {
			rep.fail("replay %d of the same seed changed the simulated metrics", len(hosts)+1)
		}
		hosts = append(hosts, host)
	}
	rss := maxRSSMiB()

	altSim, _, err := replay(w, s, opts, altSrc, nil, bufs)
	if err != nil {
		return nil, fmt.Errorf("second-seed replay: %w", err)
	}
	if altSim == sim {
		rep.fail("the second seed's input left the simulated metrics unchanged")
	}
	if opts.Reliability != nil {
		altSim, _, err := replay(w, s, altOpts, src, nil, bufs)
		if err != nil {
			return nil, fmt.Errorf("second-seed replay: %w", err)
		}
		if altSim.retried == sim.retried {
			rep.fail("the second reliability seed left the retried reads unchanged")
		}
	}

	profPath := filepath.Join(dir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, seed))
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	tr := newTracer(prof)
	tsim, thost, err := replay(w, s, opts, src, tr, bufs)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if tsim != sim {
		rep.fail("the traced replay's simulated metrics differ from the untraced replay's")
	}
	spansPath := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err := tr.writeChrome(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	shares, sampled, err := cpuShares(exe, profPath)
	if err != nil {
		return nil, err
	}

	untraced := median(hosts, func(h hostResult) float64 { return h.replay.cpu.Seconds() })
	rep.endToEnd(sim, hosts, rss)
	rep.perLayer(sim, thost, tr, shares, untraced)
	times := make([]time.Duration, len(hosts))
	for i, h := range hosts {
		times[i] = h.replay.cpu.Round(time.Millisecond)
	}
	rep.note("%d untraced replays took %v of CPU time", len(hosts), times)
	rep.note("traced replay profiled for %.0f samples, spans in %s", sampled*profileHz, spansPath)
	rep.attempted = sim.requests * uint64(len(hosts))
	rep.failed = sim.failed * uint64(len(hosts))
	return rep, nil
}

// logicalBytes is the logical space every workload's FTL exports.
func logicalBytes(s harness.Scale) uint64 {
	cfg := benchDevice(s)
	return ftl.LogicalPagesFor(cfg, overProvision) * uint64(cfg.PageSize)
}

// maxRSSMiB returns the process's peak resident memory.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of f over the host results.
func median(hosts []hostResult, f func(hostResult) float64) float64 {
	v := make([]float64, len(hosts))
	for i, h := range hosts {
		v[i] = f(h)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
