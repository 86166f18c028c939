package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
)

// simResult is everything the modelled device reports for one replay. It
// is a deterministic function of the workload and seed, so two replays of
// the same input must compare equal with ==.
type simResult struct {
	requests      uint64 // requests pulled from the input
	failed        uint64 // requests that hit an uncorrectable read
	readPages     uint64 // pages of the read requests pulled
	writePages    uint64 // pages of the write requests pulled
	readN, writeN int    // requests that scheduled device work
	readP50       time.Duration
	readP999      time.Duration
	writeP999     time.Duration
	makespan      time.Duration
	waf           float64
	events        uint64
	devOps        uint64 // device reads + programs + erases

	ftlReads, ftlWrites, unmapped, gcCopies, ftlErases uint64
	fastReadShare                                      float64
	migrations, diversions, demotions                  uint64

	nandReads, nandPrograms, nandErases, retried uint64
}

// hostResult is the simulator's own cost for one replay, as wall time
// and as the process's CPU time.
type hostResult struct {
	setup      hostTime // device and FTL construction plus prefill
	replay     hostTime // the measured harness.ReplayQueued call
	allocBytes uint64   // heap bytes allocated during the replay
	gcCycles   uint32   // garbage collections during the replay
}

// replay builds the workload's device and an FTL with opts, prefills it
// and replays one copy of src through harness.ReplayQueued. A non-nil
// tracer records spans around every call into the layers and profiles
// the replay.
func replay(w *workload, s harness.Scale, opts ftl.Options, src source, tr *tracer, bufs *captureBuffers) (simResult, hostResult, error) {
	cfg := benchDevice(s)
	// Start every replay from a collected heap, so no replay pays for the
	// garbage of the one before it.
	runtime.GC()
	in, done, err := src()
	if err != nil {
		return simResult{}, hostResult{}, err
	}
	defer done() // releases the input on error paths; a second call is harmless

	start := hostNow()
	tr.begin(spanSetup)
	tr.begin(spanSetupDevice)
	dev, err := nand.NewDevice(cfg)
	tr.end()
	if err != nil {
		return simResult{}, hostResult{}, err
	}
	tr.begin(spanSetupFTL)
	f, err := w.buildFTL(dev, opts)
	tr.end()
	if err != nil {
		return simResult{}, hostResult{}, err
	}
	tr.begin(spanSetupPrefill)
	err = prefill(f)
	tr.end()
	tr.end()
	if err != nil {
		return simResult{}, hostResult{}, fmt.Errorf("prefill: %w", err)
	}
	if got, want := f.LogicalPages()*uint64(cfg.PageSize), logicalBytes(s); got != want {
		return simResult{}, hostResult{}, fmt.Errorf("FTL exports %d logical bytes, input was sized for %d", got, want)
	}
	*f.Stats() = ftl.Stats{}
	dev.ResetClocks()

	base := snapshot(f)
	rm := harness.NewReplayMetrics()
	cs := newCaptureStream(in, dev, tr, bufs)
	var target ftl.FTL = f
	if tr != nil {
		target = &tracedFTL{FTL: f, tr: tr}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if tr != nil {
		// Setting the rate first raises it above the default 100 Hz;
		// StartCPUProfile then warns on stderr that it could not set its own.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(tr.profile); err != nil {
			return simResult{}, hostResult{}, err
		}
	}
	tr.begin(spanReplay)
	t0 := hostNow()
	err = harness.ReplayQueued(target, cs, rm, harness.ReplayOptions{QueueDepth: queueDepth})
	replayTime := hostNow().sub(t0)
	tr.end()
	if tr != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if derr := done(); err == nil {
		err = derr
	}
	if err != nil {
		return simResult{}, hostResult{}, err
	}
	host := hostResult{
		setup:      cs.firstPull.sub(start),
		replay:     replayTime,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
	}
	sim, err := collect(f, base, rm, cs)
	bufs.reads, bufs.writes = cs.reads, cs.writes
	return sim, host, err
}

// prefill writes every logical page once as bulk cold data, as the
// harness does before every measured replay.
func prefill(f ftl.FTL) error {
	const bulk = 1 << 20
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.Write(lpn, bulk); err != nil {
			return err
		}
	}
	return nil
}

// counters holds the cumulative device and PPB counters a replay's
// deltas are taken against.
type counters struct {
	reads, programs, erases, retried uint64
	ppb                              core.Stats
}

func snapshot(f ftl.FTL) counters {
	dev := f.Device()
	st := dev.Stats()
	c := counters{
		reads:    st.Reads.Value(),
		programs: st.Programs.Value(),
		erases:   dev.TotalErases(),
		retried:  dev.ReliabilityStats().Retried,
	}
	if p, ok := f.(*core.PPB); ok {
		c.ppb = *p.PPBStats()
	}
	return c
}

// collect derives the replay's simulated metrics and checks them against
// what the harness recorded itself.
func collect(f ftl.FTL, base counters, rm *harness.ReplayMetrics, cs *captureStream) (simResult, error) {
	dev := f.Device()
	if err := dev.CheckAccounting(); err != nil {
		return simResult{}, fmt.Errorf("device accounting: %w", err)
	}
	now := snapshot(f)
	st := f.Stats()
	r := simResult{
		requests:     cs.pulled,
		failed:       cs.failed,
		readPages:    cs.readPages,
		writePages:   cs.writePages,
		readN:        len(cs.reads),
		writeN:       len(cs.writes),
		readP50:      quantile(cs.reads, 0.50),
		readP999:     quantile(cs.reads, 0.999),
		writeP999:    quantile(cs.writes, 0.999),
		makespan:     dev.Makespan(),
		waf:          st.WAF(),
		events:       rm.Events,
		ftlReads:     st.HostReads.Value(),
		ftlWrites:    st.HostWrites.Value(),
		unmapped:     st.UnmappedReads.Value(),
		gcCopies:     st.GCCopies.Value(),
		ftlErases:    st.GCErases.Value(),
		migrations:   now.ppb.Migrations.Value() - base.ppb.Migrations.Value(),
		diversions:   now.ppb.Diversions.Value() - base.ppb.Diversions.Value(),
		demotions:    now.ppb.Demotions.Value() - base.ppb.Demotions.Value(),
		nandReads:    now.reads - base.reads,
		nandPrograms: now.programs - base.programs,
		nandErases:   now.erases - base.erases,
		retried:      now.retried - base.retried,
	}
	r.devOps = r.nandReads + r.nandPrograms + r.nandErases
	if reads := st.FastReads.Value() + st.SlowReads.Value(); reads > 0 {
		r.fastReadShare = float64(st.FastReads.Value()) / float64(reads)
	}

	// The per-request latencies captured here must be exactly the samples
	// the harness folded into its own histograms.
	for _, h := range []struct {
		name string
		got  []time.Duration
		want interface {
			Count() uint64
			Sum() time.Duration
		}
	}{{"read", cs.reads, rm.ReadLatency}, {"write", cs.writes, rm.WriteLatency}} {
		var sum time.Duration
		for _, d := range h.got {
			sum += d
		}
		if uint64(len(h.got)) != h.want.Count() || sum != h.want.Sum() {
			return simResult{}, fmt.Errorf("%s latencies: captured %d samples summing to %v, harness has %d summing to %v",
				h.name, len(h.got), sum, h.want.Count(), h.want.Sum())
		}
	}
	if got, want := r.ftlReads+r.unmapped, cs.readPages; got != want {
		return simResult{}, fmt.Errorf("FTL served %d read pages, requests pulled hold %d", got, want)
	}
	if got, want := r.ftlWrites, cs.writePages; got != want {
		return simResult{}, fmt.Errorf("FTL wrote %d host pages, requests pulled hold %d", got, want)
	}
	return r, nil
}

// quantile returns the nearest-rank q-quantile of the samples, the rank
// convention metrics.Histogram uses. It sorts the samples in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// beyond returns how many of n samples rank above the q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// captureStream is the top-level stream of every replay. ReplayQueued
// pulls the next request right after issuing the previous one (a
// lookahead of exactly one), so each pull after the first finds the
// device's burst window describing the request just issued: its
// completion latency and whether one of its reads was uncorrectable.
type captureStream struct {
	src trace.Stream
	dev *nand.Device
	tr  *tracer

	firstPull hostTime
	pulled    uint64
	cur       trace.Request
	pageSize  int

	reads, writes         []time.Duration
	readPages, writePages uint64
	failed                uint64
	uncorrectable         uint64
}

// captureBuffers carries the latency buffers from one replay to the
// next, so only the first replay of a run grows them: the later ones,
// the traced one included, allocate nothing the program does not.
type captureBuffers struct {
	reads, writes []time.Duration
}

func newCaptureStream(src trace.Stream, dev *nand.Device, tr *tracer, bufs *captureBuffers) *captureStream {
	return &captureStream{
		src:           src,
		dev:           dev,
		tr:            tr,
		pageSize:      dev.Config().PageSize,
		reads:         bufs.reads[:0],
		writes:        bufs.writes[:0],
		uncorrectable: dev.ReliabilityStats().Uncorrectable,
	}
}

// Next implements trace.Stream.
func (c *captureStream) Next() (trace.Request, bool) {
	if c.pulled == 0 {
		c.firstPull = hostNow()
	} else {
		c.settle()
	}
	c.tr.beginNext()
	r, ok := c.src.Next()
	c.tr.endNext()
	if !ok {
		return r, false
	}
	c.pulled++
	c.cur = r
	n := uint64(r.PageCount(c.pageSize))
	if r.Op == trace.OpWrite {
		c.writePages += n
	} else {
		c.readPages += n
	}
	return r, true
}

// settle records the request ReplayQueued has just issued.
func (c *captureStream) settle() {
	d := c.dev
	if d.BurstOps() == 0 {
		return // a read of unwritten pages: no device work, no sample
	}
	lat := d.BurstFinish() - d.Now()
	if c.cur.Op == trace.OpWrite {
		c.writes = append(c.writes, lat)
	} else {
		c.reads = append(c.reads, lat)
	}
	if u := d.ReliabilityStats().Uncorrectable; u != c.uncorrectable {
		c.uncorrectable = u
		c.failed++
	}
}

// hostTime is a reading, or a difference, of the wall clock and of the
// user plus system CPU time of the whole process. On a virtual machine
// whose kernel accounts steal time, as paravirtualized Linux guests do,
// the CPU time leaves out the time the host takes the CPUs away.
type hostTime struct {
	wall, cpu time.Duration
}

var wallOrigin = time.Now()

func hostNow() hostTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return hostTime{
		wall: time.Since(wallOrigin),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func (t hostTime) sub(from hostTime) hostTime {
	return hostTime{wall: t.wall - from.wall, cpu: t.cpu - from.cpu}
}

func (t hostTime) add(o hostTime) hostTime {
	return hostTime{wall: t.wall + o.wall, cpu: t.cpu + o.cpu}
}
