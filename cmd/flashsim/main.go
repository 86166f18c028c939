// Command flashsim replays a block-level trace file (MSR Cambridge CSV
// or the simple "R|W offset size" text format) through a simulated 3D
// charge-trap NAND device under one or more FTL strategies and reports
// the access-latency and garbage-collection statistics.
//
// Usage:
//
//	flashsim -ftl ppb -trace websql.csv [-format msr] [-gb 4] \
//	         [-ratio 2] [-pagesize 16384] [-chips N] [-qd N] [-openloop] \
//	         [-planes N] [-suspend off|erase|full] [-reorder-window D] \
//	         [-dispatch striped|least-loaded|hotcold-affinity|tenant-partition] \
//	         [-defer-erases] \
//	         [-reliability off|low|high] [-wear none|wear-aware|threshold-swap] \
//	         [-seed N] [-prefill] [-parallel N] [-tenants N]
//
// -ftl accepts a comma-separated list (e.g. -ftl conventional,ppb); the
// strategies replay the same trace concurrently on a worker pool.
//
// -qd keeps N requests outstanding (closed loop); -openloop instead
// issues requests at their trace arrival timestamps and reports the
// queueing delay the backlog builds up (-qd still caps the outstanding
// requests).
//
// -dispatch picks the chip-dispatch policy for fresh-block allocation on
// multi-chip devices (-chips > 1): round-robin striping (default), the
// earliest-free chip by the device clocks, hot-stream pools pinned to
// a chip subset, or per-tenant chip partitions (pair with -tenants).
//
// -tenants N replays the trace as N tenants: each tenant streams its own
// copy of the trace into its own 1/N slice of the logical space, merged
// round-robin by a stream compositor, and the report breaks latency
// percentiles down per tenant. Combine with -dispatch tenant-partition
// to confine each tenant's allocations (and the GC they trigger) to its
// own chips. With -tenants the compositor stamps each tenant's n-th
// request at n µs in place of the trace's own arrival timestamps, so
// -openloop replays that stamp, not the original trace times.
//
// -planes splits each chip into N planes: operations on blocks of
// distinct planes of one chip may overlap within a bounded reordering
// window (-reorder-window, default 4x the erase latency when planes
// are on). -suspend lets an incoming read preempt an in-flight erase
// ("erase") or also an in-flight program ("full") at a suspend/resume
// cost, resuming the remainder afterward.
//
// GC relocations are causal: each relocation's program waits for its
// source read, the victim erase for the last relocation.
// -defer-erases parks GC erases on busy chips in a per-chip deferred
// queue, committed when the chip idles, instead of head-of-line blocking
// host reads.
//
// -reliability installs a layer-aware reliability preset: reads sample
// a per-page raw bit-error rate (layer skew x P/E cycling x retention
// age) and pay read-retry and ECC-decode latency; error-prone blocks
// retire. -wear picks the GC wear-leveling policy; -seed drives the
// fault-injection PRNG (equal seeds inject identical faults).
//
// Unknown -ftl, -dispatch, -reliability, -wear, -suspend or -format
// names are rejected before the trace is loaded, with the list of valid
// names, and so are -gb outside (0, 64] or at or below 64/683 GiB (about
// 0.0937, where the Table 1 geometry reaches Config.Scaled's block
// floor), -tenants outside [1, 8], -qd, -chips or -planes below 1,
// -pagesize below 4096, -chips above the block count of the requested
// device, a negative -parallel or -reorder-window, a -disk below -1, and
// a -disk other than -1 with -format simple (which has no disk field).
//
// flashsim charges Table 1's 533 MB/s channel transfer on every page
// read and program: it builds its device from TableOneConfig, which
// moves a 16 KiB page in 30.7 µs on top of the cell latency, while the
// paper figures run on harness Scale.DeviceConfig, which zeroes that
// transfer (its doc says why). Its latencies are therefore not directly
// comparable with ppbench's.
//
// Traces replay as pull-based streams: one validation pass up front,
// then each FTL's replay re-reads the file one request at a time, so a
// multi-day MSR trace never resides fully in memory.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"ppbflash"
	"ppbflash/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in, returning the
// exit status: 2 for bad flags, 1 for trace and replay errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ftlNames = fs.String("ftl", "ppb", "comma-separated: conventional, ppb, greedy-speed, hotcold-split")
		path     = fs.String("trace", "", "trace file to replay (required)")
		format   = fs.String("format", "msr", "trace format: msr or simple")
		gb       = fs.Float64("gb", 4, "device capacity in GiB (Table 1 geometry, scaled)")
		ratio    = fs.Float64("ratio", 2, "bottom/top page speed ratio (paper: 2-5)")
		pageSize = fs.Int("pagesize", 16<<10, "page size in bytes")
		chips    = fs.Int("chips", 1, "flash chips sharing the capacity (chip-parallel service)")
		planes   = fs.Int("planes", 1, "planes per chip (intra-chip operation overlap)")
		suspend  = fs.String("suspend", "off", "read preemption of in-flight ops: off, erase or full")
		reorder  = fs.Duration("reorder-window", 0, "cross-plane reordering window (0 = 4x erase latency when -planes > 1)")
		dispatch = fs.String("dispatch", "striped", "chip-dispatch policy: striped, least-loaded, hotcold-affinity or tenant-partition")
		deferE   = fs.Bool("defer-erases", false, "defer GC erases on busy chips to their next idle gap")
		relProf  = fs.String("reliability", "off", "reliability preset: off, low or high")
		wear     = fs.String("wear", "none", "wear-leveling policy: none, wear-aware or threshold-swap")
		seed     = fs.Int64("seed", 1, "fault-injection PRNG seed for -reliability")
		qd       = fs.Int("qd", 1, "host queue depth: outstanding requests during replay")
		openloop = fs.Bool("openloop", false, "issue requests at their trace arrival times (open loop)")
		prefill  = fs.Bool("prefill", true, "write the whole logical space before replay")
		disk     = fs.Int("disk", -1, "replay only this MSR disk number (-1 = all)")
		parallel = fs.Int("parallel", 0, "concurrent runs when several FTLs are given (0 = GOMAXPROCS)")
		tenants  = fs.Int("tenants", 1, "replay the trace as N tenants, each in its own logical-space slice (1 = classic single-stream)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *path == "" {
		fmt.Fprintln(stderr, "flashsim: -trace is required")
		fs.Usage()
		return 2
	}
	if err := validateRanges(rangeFlags{gb: *gb, qd: *qd, tenants: *tenants, pageSize: *pageSize,
		chips: *chips, planes: *planes, parallel: *parallel, reorder: *reorder,
		format: *format, disk: *disk}); err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 2
	}
	// Reject bad policy names before the (possibly long) trace load, with
	// the valid spellings, instead of failing deep inside the run.
	opts, err := resolveNames(*ftlNames, *dispatch, *relProf, *wear, *suspend)
	if err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 2
	}
	opts.DeferErases = *deferE
	opts.ReorderWindow = *reorder
	opts.ReliabilitySeed = *seed
	opts.Tenants = *tenants

	nreq, hasTimes, err := scanTrace(*path, *format, *disk)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if nreq == 0 {
		fmt.Fprintln(stderr, "flashsim: trace is empty")
		return 1
	}
	if *openloop && !hasTimes {
		// The simple format (and synthetic traces) carry no timestamps:
		// every request "arrives" at t=0, so open-loop latency from
		// arrival degenerates to the running makespan. Surface it rather
		// than printing meaningless percentiles without comment.
		fmt.Fprintln(stderr, "flashsim: warning: -openloop but the trace has no arrival timestamps; "+
			"all requests arrive at t=0 and latency percentiles measure the backlog, not per-request service")
	}

	cfg := deviceConfig(*gb, *pageSize).WithSpeedRatio(*ratio)
	if *chips > 1 {
		cfg = cfg.WithChips(*chips)
	}
	if *planes > 1 {
		cfg = cfg.WithPlanes(*planes)
	}

	var specs []ppbflash.RunSpec
	var streams []*traceStream
	var clocks []*replayClock
	for _, name := range strings.Split(*ftlNames, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		clock := &replayClock{}
		clocks = append(clocks, clock)
		spec := ppbflash.RunSpec{
			Name:       *path + "/" + name,
			Device:     cfg,
			Kind:       ppbflash.FTLKind(name),
			FTLOptions: opts,
			Prefill:    *prefill,
			QueueDepth: *qd,
			OpenLoop:   *openloop,
		}
		if *tenants > 1 {
			// One stream per tenant per strategy: each tenant replays its
			// own copy of the trace, wrapped into its own 1/N slice of the
			// logical space by the compositor's AddrOffset.
			children := make([]*traceStream, *tenants)
			for t := range children {
				children[t] = &traceStream{path: *path, format: *format, disk: *disk}
				streams = append(streams, children[t])
			}
			spec.Workload = func(logicalBytes uint64) ppbflash.Generator {
				region := logicalBytes / uint64(len(children))
				kids := make([]ppbflash.CompositorChild, len(children))
				for t, st := range children {
					st.bytes = region
					kids[t] = ppbflash.CompositorChild{
						Stream:     st,
						Tenant:     uint8(t),
						AddrOffset: uint64(t) * region,
					}
				}
				return clock.wrap(&tenantGen{comp: ppbflash.NewCompositor(kids...), bytes: logicalBytes})
			}
		} else {
			// One stream per strategy: RunAll replays strategies
			// concurrently, so each gets its own file handle and read
			// position.
			st := &traceStream{path: *path, format: *format, disk: *disk}
			streams = append(streams, st)
			spec.Workload = func(logicalBytes uint64) ppbflash.Generator {
				st.bytes = logicalBytes
				return clock.wrap(st)
			}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		fmt.Fprintln(stderr, "flashsim: -ftl names no strategy")
		return 2
	}

	results, err := ppbflash.RunAll(specs, *parallel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A parse error mid-trace ends the stream early instead of aborting
	// the run; surface it here rather than reporting a silently truncated
	// replay as a clean result.
	for _, st := range streams {
		if err := st.Err(); err != nil {
			fmt.Fprintln(stderr, "flashsim:", err)
			return 1
		}
	}

	for i, res := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		mode := fmt.Sprintf("closed loop QD %d", *qd)
		if *openloop {
			mode = fmt.Sprintf("open loop, QD cap %d", *qd)
		}
		sched := "causal deps"
		if *deferE {
			sched += ", deferred erases"
		}
		if *suspend != "off" {
			sched += ", " + *suspend + " suspend"
		}
		chipDesc := fmt.Sprintf("%d chip(s)", cfg.Chips)
		if cfg.PlaneCount() > 1 {
			chipDesc = fmt.Sprintf("%d chip(s) x %d planes", cfg.Chips, cfg.PlaneCount())
		}
		fmt.Fprintf(stdout, "device: %.1f GiB, %d KB pages, ratio %.0fx, %s, %s dispatch, %s, %s FTL, %s\n",
			float64(cfg.TotalBytes())/(1<<30), cfg.PageSize>>10, cfg.SpeedRatio, chipDesc, *dispatch, sched, specs[i].Kind, mode)
		fmt.Fprintf(stdout, "host:   %d page reads (%d unmapped), %d page writes\n",
			res.HostReadPages, res.UnmappedReads, res.HostWritePage)
		fmt.Fprintf(stdout, "time:   read total %v, write total %v, makespan %v\n", res.ReadTotal, res.WriteTotal, res.Makespan)
		wall := clocks[i].wall
		var eventsPerSec float64
		if s := wall.Seconds(); s > 0 {
			eventsPerSec = float64(res.ReplayEvents) / s
		}
		fmt.Fprintf(stdout, "speed:  %.0f device-ops/s simulated (%d ops over the makespan); %d events replayed in %v (%.0f events/s wall)\n",
			res.SimOpsPerSec, res.DeviceOps, res.ReplayEvents, wall.Round(time.Millisecond), eventsPerSec)
		fmt.Fprintf(stdout, "lat:    read p50/p95/p99 %v/%v/%v, write p50/p95/p99 %v/%v/%v\n",
			res.ReadP50, res.ReadP95, res.ReadP99, res.WriteP50, res.WriteP95, res.WriteP99)
		fmt.Fprintf(stdout, "queue:  delay p50/p95/p99 %v/%v/%v\n",
			res.QueueDelayP50, res.QueueDelayP95, res.QueueDelayP99)
		fmt.Fprintf(stdout, "gc:     %d erases, %d copies, WAF %.2f\n", res.Erases, res.GCCopies, res.WAF)
		if *suspend != "off" {
			fmt.Fprintf(stdout, "susp:   %d erase/program suspensions by reads\n", res.Suspends)
		}
		if *relProf != "off" {
			fmt.Fprintf(stdout, "rel:    %s profile, %s wear: retry rate %.4f%% (mean %.2f steps), %d uncorrectable, %d blocks retired\n",
				*relProf, *wear, res.RetryRate*100, res.MeanRetrySteps, res.UncorrectableReads, res.RetiredBlocks)
		}
		for t := 0; t < res.TenantCount; t++ {
			tr := res.Tenants[t]
			fmt.Fprintf(stdout, "tenant: #%d %d reqs, read p50/p95/p99 %v/%v/%v, qdelay p99 %v\n",
				tr.Tenant, tr.Ops, tr.ReadP50, tr.ReadP95, tr.ReadP99, tr.QueueDelayP99)
		}
		fmt.Fprintf(stdout, "layout: %.1f%% of host reads served from fast pages\n", res.FastReadShare*100)
		if res.Kind == ppbflash.KindPPB {
			fmt.Fprintf(stdout, "ppb:    %d migrations, %d diversions, %d demotions\n",
				res.Migrations, res.Diversions, res.Demotions)
		}
	}
	return 0
}

// minPageSize is the smallest -pagesize flashsim models: with it the
// largest device (-gb 64) has 16,777,216 pages, four times the paper's
// 16 KiB Table 1 device, and per-page state stays bounded.
const minPageSize = 4096

// deviceConfig returns the single-chip Table 1 geometry scaled to gb
// GiB with the given page size.
func deviceConfig(gb float64, pageSize int) ppbflash.DeviceConfig {
	cfg := ppbflash.TableOneConfig().Scaled(int(64.0 / gb))
	if pageSize != cfg.PageSize {
		cfg = cfg.WithPageSize(pageSize)
	}
	return cfg
}

// rangeFlags are the flags validateRanges checks.
type rangeFlags struct {
	gb                                                   float64
	qd, tenants, pageSize, chips, planes, parallel, disk int
	reorder                                              time.Duration
	format                                               string
}

// validateRanges rejects out-of-range numeric flags and unknown trace
// selections up front, naming the valid range or names: -gb scales the
// 64 GiB Table 1 device down, so it must lie in (0, 64], and its divisor
// 64/gb may not exceed what Config.Scaled honours — a larger one would
// shrink the chip below Scaled's block floor, which Scaled silently
// restores (and one past the int range would wrap to a divisor of 1, the
// full device). The divisor is checked as a float, before deviceConfig
// converts it. -qd must allow at least one outstanding request;
// -tenants is bounded by the compositor's tenant slots; -pagesize has
// the minPageSize floor; a chip and a plane per chip are the least a
// device can have, and a chip needs at least one block of the device.
// -parallel and -reorder-window reserve 0 for their defaults and have
// no negative meaning. -format names a trace parser, and -disk filters
// MSR records by disk number, with -1 for all; the simple format has no
// disk field to filter on.
func validateRanges(f rangeFlags) error {
	if !(f.gb > 0 && f.gb <= 64) {
		return fmt.Errorf("-gb %g out of range (0, 64]", f.gb)
	}
	t1 := ppbflash.TableOneConfig()
	floor := t1.Scaled(math.MaxInt).BlocksPerChip
	if maxDiv := t1.BlocksPerChip / floor; 64/f.gb >= float64(maxDiv+1) {
		return fmt.Errorf("-gb %g out of range (64/%d = %.4f, 64]: a smaller device would be raised to %d blocks",
			f.gb, maxDiv+1, 64/float64(maxDiv+1), floor)
	}
	if f.tenants < 1 || f.tenants > ppbflash.MaxTenants {
		return fmt.Errorf("-tenants %d out of range [1, %d]", f.tenants, ppbflash.MaxTenants)
	}
	for _, fl := range []struct {
		name   string
		v, min int
	}{{"qd", f.qd, 1}, {"pagesize", f.pageSize, minPageSize}, {"chips", f.chips, 1}, {"planes", f.planes, 1}} {
		if fl.v < fl.min {
			return fmt.Errorf("-%s %d out of range: want at least %d", fl.name, fl.v, fl.min)
		}
	}
	if blocks := deviceConfig(f.gb, f.pageSize).TotalBlocks(); f.chips > blocks {
		return fmt.Errorf("-chips %d out of range [1, %d]: the device has %d blocks", f.chips, blocks, blocks)
	}
	if f.parallel < 0 {
		return fmt.Errorf("-parallel %d out of range: want at least 1, or 0 for GOMAXPROCS", f.parallel)
	}
	if f.reorder < 0 {
		return fmt.Errorf("-reorder-window %v out of range: want at least 0 (0 = 4x the erase latency when -planes > 1)", f.reorder)
	}
	switch {
	case f.format != "msr" && f.format != "simple":
		return fmt.Errorf("unknown -format %q (want msr or simple)", f.format)
	case f.disk < -1:
		return fmt.Errorf("-disk %d out of range: want a disk number of at least 0, or -1 for all disks", f.disk)
	case f.disk != -1 && f.format == "simple":
		return fmt.Errorf("-disk %d needs -format msr: the simple format has no disk field (want -1)", f.disk)
	}
	return nil
}

// resolveNames resolves the named policy knobs into the FTL options the
// run uses, rejecting unknown names up front: every name goes through
// the registry the knob belongs to, so the error carries that registry's
// own list of valid spellings. The reliability profile "off" resolves to
// no reliability model. The -ftl flag is a comma-separated list; empty
// elements are skipped like the spec loop does.
func resolveNames(ftlNames, dispatch, reliability, wear, suspend string) (ppbflash.FTLOptions, error) {
	var opts ppbflash.FTLOptions
	for _, name := range strings.Split(ftlNames, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, k := range ppbflash.FTLKindNames {
			if name == k {
				known = true
				break
			}
		}
		if !known {
			return opts, fmt.Errorf("unknown FTL %q (want %s)", name, strings.Join(ppbflash.FTLKindNames, ", "))
		}
	}
	var err error
	if opts.Dispatch, err = ppbflash.DispatchByName(dispatch); err != nil {
		return opts, err
	}
	prof, err := ppbflash.ReliabilityProfileByName(reliability)
	if err != nil {
		return opts, err
	}
	if prof.Enabled {
		opts.Reliability = &prof
	}
	if opts.Wear, err = ppbflash.WearByName(wear); err != nil {
		return opts, err
	}
	if opts.Suspend, err = ppbflash.SuspendByName(suspend); err != nil {
		return opts, err
	}
	return opts, nil
}

// openTraceStream opens the trace file and wraps it in the parser for
// the given format. The caller owns the returned file.
func openTraceStream(path, format string, disk int) (*os.File, *trace.ErrStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	switch format {
	case "msr":
		r := trace.NewMSRReader(f)
		if disk >= 0 {
			r.FilterDisk(disk)
		}
		return f, r.Stream(), nil
	case "simple":
		return f, trace.NewSimpleReader(f).Stream(), nil
	default:
		f.Close()
		return nil, nil, fmt.Errorf("flashsim: unknown format %q", format)
	}
}

// scanTrace streams the trace once without materializing it, returning
// the request count and whether any request carries a nonzero arrival
// timestamp (open-loop replay is meaningless without them). It doubles
// as the up-front validation pass: a malformed line fails here, before
// any simulation starts.
func scanTrace(path, format string, disk int) (n int, hasTimes bool, err error) {
	f, src, err := openTraceStream(path, format, disk)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	for {
		r, ok := src.Next()
		if !ok {
			return n, hasTimes, src.Err()
		}
		n++
		if r.Time > 0 {
			hasTimes = true
		}
	}
}

// traceStream is a pull-based replay Generator: it lazily reopens the
// trace file on first Next and parses one request at a time, wrapping
// offsets into the device's logical space. The full trace is never
// held in memory. A parse error ends the stream and is latched for
// Err(); it does not abort the replay mid-run.
type traceStream struct {
	path   string
	format string
	disk   int
	bytes  uint64

	f    *os.File
	src  *trace.ErrStream
	err  error
	done bool
}

func (t *traceStream) Name() string         { return "replay" }
func (t *traceStream) LogicalBytes() uint64 { return t.bytes }

func (t *traceStream) Next() (ppbflash.Request, bool) {
	if t.done {
		return ppbflash.Request{}, false
	}
	if t.src == nil {
		f, src, err := openTraceStream(t.path, t.format, t.disk)
		if err != nil {
			t.err = err
			t.done = true
			return ppbflash.Request{}, false
		}
		t.f, t.src = f, src
	}
	r, ok := t.src.Next()
	if !ok {
		t.err = t.src.Err()
		t.done = true
		t.f.Close()
		return ppbflash.Request{}, false
	}
	if uint64(r.Size) > t.bytes {
		r.Size = uint32(t.bytes)
	}
	if r.End() > t.bytes {
		r.Offset = r.Offset % (t.bytes - uint64(r.Size) + 1)
	}
	return r, true
}

// Err reports the first open or parse error that ended the stream, if
// any. A clean end-of-trace returns nil.
func (t *traceStream) Err() error { return t.err }

// replayClock times one replay on the host: from the harness's first
// pull of the generator it wraps to that generator's end of stream. The
// simulation itself never reads the wall clock.
type replayClock struct {
	ppbflash.Generator
	start time.Time
	wall  time.Duration
}

// wrap makes the clock measure gen's replay.
func (c *replayClock) wrap(gen ppbflash.Generator) ppbflash.Generator {
	c.Generator = gen
	return c
}

func (c *replayClock) Next() (ppbflash.Request, bool) {
	if c.start.IsZero() {
		c.start = time.Now()
	}
	r, ok := c.Generator.Next()
	if !ok && c.wall == 0 {
		c.wall = time.Since(c.start)
	}
	return r, ok
}

// tenantGen adapts a per-tenant stream compositor to the Generator the
// harness replays. The merged stream spans the whole logical space even
// though each child traceStream is confined to its own slice; parse
// errors still surface through the children's own Err.
type tenantGen struct {
	comp  *ppbflash.Compositor
	bytes uint64
}

func (g *tenantGen) Name() string                   { return "replay" }
func (g *tenantGen) LogicalBytes() uint64           { return g.bytes }
func (g *tenantGen) Next() (ppbflash.Request, bool) { return g.comp.Next() }
