// Package harness builds devices and FTLs, replays workloads through
// them, and regenerates every table and figure of the paper's evaluation
// section (RunExperiment runs each registered experiment by ID).
package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/sched"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// FTLKind selects the strategy a run uses.
type FTLKind string

// Available strategies.
const (
	KindConventional FTLKind = "conventional"
	KindPPB          FTLKind = "ppb"
	KindGreedySpeed  FTLKind = "greedy-speed"
	KindHotColdSplit FTLKind = "hotcold-split"
)

// FTLKindNames lists the strategy kinds in presentation order — the
// spellings RunSpec.Kind and flashsim -ftl accept.
var FTLKindNames = []string{
	string(KindConventional), string(KindPPB), string(KindGreedySpeed), string(KindHotColdSplit),
}

// WorkloadBuilder constructs a generator sized to the run's logical
// space. The harness passes the exact logical byte capacity so traces
// never address beyond the FTL's exported space.
type WorkloadBuilder func(logicalBytes uint64) workload.Generator

// RunSpec describes one simulation run.
type RunSpec struct {
	// Name labels the run in tables.
	Name string
	// Device is the NAND geometry/timing.
	Device nand.Config
	// Kind picks the FTL strategy.
	Kind FTLKind
	// FTLOptions holds every FTL knob: over-provisioning, GC, chip
	// dispatch, erase deferral, suspend, reliability, wear and tenants
	// (zero = defaults). FTLOptions.Tenants above 1 also switches on the
	// harness side of a multi-tenant replay: per-tenant latency
	// accounting (Result.Tenants) and the active-tenant announcement to
	// the FTL before every issue. Build such a stream with a
	// trace.Compositor (see Scale.TenantWorkloads).
	FTLOptions ftl.Options
	// PPBOptions tunes the PPB strategy when Kind is KindPPB.
	PPBOptions core.Options
	// Workload builds the request stream.
	Workload WorkloadBuilder
	// Prefill writes the whole logical space once (as bulk cold data)
	// before replaying, so reads of not-yet-written addresses hit real
	// pages; prefill cost is excluded from the measured stats.
	Prefill bool
	// QueueDepth is the host queue depth: how many requests may be
	// outstanding at once during the measured replay. 0 and 1 both mean
	// the classic closed loop at queue depth 1.
	QueueDepth int
	// OpenLoop switches the host model from closed-loop to open-loop:
	// requests are issued at their trace arrival times (Request.Time)
	// and latency is measured from arrival, so queueing delay captures
	// any backlog. QueueDepth still caps the outstanding requests.
	OpenLoop bool
}

// Result carries the measurements of one run.
type Result struct {
	Name          string
	Kind          FTLKind
	ReadTotal     time.Duration
	WriteTotal    time.Duration // host programs + GC work
	HostReadPages uint64
	HostWritePage uint64
	UnmappedReads uint64
	Erases        uint64
	GCCopies      uint64
	WAF           float64
	FastReadShare float64 // fraction of host reads served from fast halves

	// Per-request completion latency percentiles under the device's
	// chip-parallel service model and the run's host queueing model
	// (RunSpec.QueueDepth/OpenLoop): the time from a request's issue —
	// its arrival in open-loop mode — to the completion of its last page
	// operation, including any garbage-collection work the request
	// triggered. Percentiles are nearest-rank upper bounds from
	// metrics.DefaultLatencyHistogram.
	ReadP50  time.Duration
	ReadP95  time.Duration
	ReadP99  time.Duration
	WriteP50 time.Duration
	WriteP95 time.Duration
	WriteP99 time.Duration
	// QueueDelay percentiles split the queueing component out of the
	// completion latencies above: the time between a request's issue (or
	// open-loop arrival) and the device starting its first operation.
	// In the closed loop this is exactly zero at queue depth 1 and grows
	// with the depth as outstanding requests contend for the chips; in
	// open-loop mode it is nonzero at any depth whenever a request
	// arrives while the device is still busy.
	QueueDelayP50 time.Duration
	QueueDelayP95 time.Duration
	QueueDelayP99 time.Duration
	// Makespan is the simulated end-to-end service time of the measured
	// trace: the time at which the last chip drained its queue. With
	// Chips=1 it equals the serial sum of every operation cost; with more
	// chips, overlapped operations shrink it.
	Makespan time.Duration

	// Suspends counts how many times a read preempted an in-flight
	// erase or program during the measured trace (zero with
	// FTLOptions.Suspend off — see nand.Device.SetSuspend).
	Suspends uint64

	// Throughput of the measured replay. DeviceOps counts the device page
	// reads, programs and erases of the trace era; SimOpsPerSec divides
	// them by the simulated makespan. ReplayEvents counts the discrete
	// events the event loop processed: open-loop arrivals, issues and
	// completions (deferred-erase commits and suspensions happen inside
	// the device and are not events). All three are deterministic, like
	// every field of a Result, so results compare with ==.
	DeviceOps    uint64
	SimOpsPerSec float64
	ReplayEvents uint64

	// Reliability outcomes of the measured trace (all zero with the
	// model off — see FTLOptions.Reliability). RetiredBlocks is cumulative
	// (the capacity permanently lost, including prefill-era
	// retirements); the read counters are trace-era deltas.
	RetriedReads       uint64
	RetrySteps         uint64
	UncorrectableReads uint64
	RetiredBlocks      uint64
	RetryRate          float64 // retried reads / device reads
	MeanRetrySteps     float64 // retry steps per retried read

	// Tenants breaks the measured replay down per tenant on multi-tenant
	// runs (FTLOptions.Tenants >= 2): slots [0, TenantCount) carry each
	// tenant's completed requests and latency percentiles; the rest stay
	// zero. Single-tenant runs leave TenantCount 0 and the whole array
	// zero, so the field never perturbs existing Result comparisons. The
	// array is fixed-size (trace.MaxTenants) to keep Result comparable
	// with ==.
	Tenants     [trace.MaxTenants]TenantResult
	TenantCount int

	// PPB-only counters (zero otherwise).
	Migrations uint64
	Diversions uint64
	Demotions  uint64
}

// TenantResult carries one tenant's share of a multi-tenant replay: its
// completed requests and the same completion-latency and queue-delay
// percentiles Result reports globally, computed over that tenant's
// requests alone. The per-tenant histograms behind it use the same
// bounds as the global ones, so a tenant's percentile is directly
// comparable to the run-wide figure. All fields are simulated numbers.
type TenantResult struct {
	// Tenant is the tenant ID (the slot index; folded IDs land in the
	// last slot, see trace.MaxTenants).
	Tenant int
	// Ops counts the tenant's completed measured requests (requests that
	// scheduled no device work are not observed, matching the global
	// histograms).
	Ops uint64

	ReadP50  time.Duration
	ReadP95  time.Duration
	ReadP99  time.Duration
	WriteP50 time.Duration
	WriteP95 time.Duration
	WriteP99 time.Duration

	QueueDelayP50 time.Duration
	QueueDelayP95 time.Duration
	QueueDelayP99 time.Duration
}

// buildFTL constructs the FTL for a spec.
func buildFTL(spec RunSpec, dev *nand.Device) (ftl.FTL, error) {
	switch spec.Kind {
	case KindConventional:
		return ftl.NewConventional(dev, spec.FTLOptions)
	case KindPPB:
		opt := spec.PPBOptions
		opt.FTL = spec.FTLOptions
		return core.New(dev, opt)
	case KindGreedySpeed:
		return ftl.NewGreedySpeed(dev, spec.FTLOptions)
	case KindHotColdSplit:
		return ftl.NewHotColdSplit(dev, spec.FTLOptions)
	default:
		return nil, fmt.Errorf("harness: unknown FTL kind %q (want %s)",
			spec.Kind, strings.Join(FTLKindNames, ", "))
	}
}

// Run executes one simulation and returns its measurements.
func Run(spec RunSpec) (Result, error) {
	if spec.Workload == nil {
		return Result{}, fmt.Errorf("harness: run %q has no workload", spec.Name)
	}
	dev, err := nand.NewDevice(spec.Device)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", spec.Name, err)
	}
	f, err := buildFTL(spec, dev)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", spec.Name, err)
	}
	logicalBytes := f.LogicalPages() * uint64(spec.Device.PageSize)
	gen := spec.Workload(logicalBytes)
	if gen.LogicalBytes() > logicalBytes {
		return Result{}, fmt.Errorf("harness: %s: workload needs %d bytes, logical space is %d",
			spec.Name, gen.LogicalBytes(), logicalBytes)
	}
	if spec.Prefill {
		if err := prefill(f); err != nil {
			return Result{}, fmt.Errorf("harness: %s: prefill: %w", spec.Name, err)
		}
		*f.Stats() = ftl.Stats{} // measure the trace, not the prefill
		dev.ResetClocks()        // makespan/latency measure the trace too
	}
	// Snapshot the device erase counter so collect reports only trace-era
	// erases: the FTL stats reset above cannot reach the device counter,
	// and prefill on a tight logical space runs real garbage collection.
	// Reliability outcomes and the raw read count get the same treatment
	// so retry rates describe the trace, not the prefill.
	eraseBase := dev.TotalErases()
	relBase := dev.ReliabilityStats()
	readsBase := dev.Stats().Reads.Value()
	opsBase := readsBase + dev.Stats().Programs.Value() + dev.TotalErases()
	suspendsBase := dev.Suspends()
	rm := NewReplayMetrics()
	if n := spec.FTLOptions.Tenants; n > 1 {
		rm.EnableTenants(n)
	}
	opts := ReplayOptions{QueueDepth: spec.QueueDepth, OpenLoop: spec.OpenLoop}
	if err := ReplayQueued(f, gen, rm, opts); err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", spec.Name, err)
	}
	return collect(spec, f, eraseBase, relBase, readsBase, opsBase, suspendsBase, rm), nil
}

// RunAll executes the specs on a pool of parallelism workers and returns
// the results in spec order. Each run owns its device and FTL, so runs
// are embarrassingly parallel and every result is identical to a
// sequential Run of the same spec — parallelism only changes wall-clock
// time, never the measurements. parallelism <= 0 means GOMAXPROCS. On
// error it returns nil and the first failure (in worker completion
// order); the runs not yet started are skipped.
func RunAll(specs []RunSpec, parallelism int) ([]Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = min(parallelism, len(specs))
	results := make([]Result, len(specs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Fail fast: once any run has failed, the batch has no
				// results to return, so don't burn time on the remaining
				// simulations.
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				res, err := Run(specs[i])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// prefill writes every logical page once, in order, as bulk cold data.
func prefill(f ftl.FTL) error {
	// A large request size makes the size-check identifier treat prefill
	// as cold bulk data on every page size we evaluate.
	const bulk = 1 << 20
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.Write(lpn, bulk); err != nil {
			return err
		}
	}
	return nil
}

// ReplayMetrics accumulates per-request completion latencies during a
// measured replay. Request latency is measured under the device's
// chip-parallel service model and the host queueing model of
// ReplayOptions: a request issues when the host model dispatches it, its
// page operations queue on their chips, and its latency is the finish
// time of its last operation minus its issue time (its arrival, in
// open-loop mode) — garbage-collection work a write triggers is charged
// to that write's latency, which is exactly the tail a host sees.
// QueueDelay splits out the waiting component: the time between issue
// and the device starting the request's first operation.
type ReplayMetrics struct {
	ReadLatency  *metrics.Histogram
	WriteLatency *metrics.Histogram
	QueueDelay   *metrics.Histogram

	// Events counts the discrete events the replay's event loop popped
	// (arrivals, issues and completions).
	Events uint64

	// tenants holds the per-tenant histogram sets of a multi-tenant
	// replay, nil on single-tenant runs so the classic path never pays
	// for them (see EnableTenants). Tenant IDs at or beyond the slice
	// fold into the last slot, mirroring trace.Stats.
	tenants []tenantMetrics
}

// tenantMetrics is one tenant's accumulator: completed requests plus
// the same three histograms ReplayMetrics keeps globally.
type tenantMetrics struct {
	ops   uint64
	read  *metrics.Histogram
	write *metrics.Histogram
	delay *metrics.Histogram
}

// EnableTenants allocates per-tenant histogram sets for a population of
// n tenants (clamped to [2, trace.MaxTenants]), using the same default
// bounds as the global histograms. Call before the replay; observe then
// attributes every completed request to its tenant's set as well as the
// global ones, and ReplayQueued announces each request's tenant to the
// FTL before issuing it.
func (m *ReplayMetrics) EnableTenants(n int) {
	if n < 2 {
		n = 2
	}
	if n > trace.MaxTenants {
		n = trace.MaxTenants
	}
	m.tenants = make([]tenantMetrics, n)
	for i := range m.tenants {
		m.tenants[i] = tenantMetrics{
			read:  metrics.DefaultLatencyHistogram(),
			write: metrics.DefaultLatencyHistogram(),
			delay: metrics.DefaultQueueDelayHistogram(),
		}
	}
}

// TenantCount returns how many per-tenant accumulators are active (zero
// on single-tenant replays).
func (m *ReplayMetrics) TenantCount() int { return len(m.tenants) }

// TenantResult summarizes tenant t's accumulated samples in Result's
// per-tenant shape. Out-of-range t returns a zero value.
func (m *ReplayMetrics) TenantResult(t int) TenantResult {
	if t < 0 || t >= len(m.tenants) {
		return TenantResult{}
	}
	ts := &m.tenants[t]
	return TenantResult{
		Tenant:        t,
		Ops:           ts.ops,
		ReadP50:       ts.read.Quantile(0.50),
		ReadP95:       ts.read.Quantile(0.95),
		ReadP99:       ts.read.Quantile(0.99),
		WriteP50:      ts.write.Quantile(0.50),
		WriteP95:      ts.write.Quantile(0.95),
		WriteP99:      ts.write.Quantile(0.99),
		QueueDelayP50: ts.delay.Quantile(0.50),
		QueueDelayP95: ts.delay.Quantile(0.95),
		QueueDelayP99: ts.delay.Quantile(0.99),
	}
}

// NewReplayMetrics builds latency histograms with the default request
// bounds (metrics.DefaultLatencyHistogram, metrics.DefaultQueueDelayHistogram).
func NewReplayMetrics() *ReplayMetrics {
	return &ReplayMetrics{
		ReadLatency:  metrics.DefaultLatencyHistogram(),
		WriteLatency: metrics.DefaultLatencyHistogram(),
		QueueDelay:   metrics.DefaultQueueDelayHistogram(),
	}
}

// observe folds one completed request into the histograms — the global
// set always, the owning tenant's set too when EnableTenants is active.
//
//flashvet:hotpath
func (m *ReplayMetrics) observe(op trace.Op, tenant uint8, latency, delay time.Duration) {
	if op == trace.OpWrite {
		m.WriteLatency.Observe(latency)
	} else {
		m.ReadLatency.Observe(latency)
	}
	m.QueueDelay.Observe(delay)
	if m.tenants == nil {
		return
	}
	t := int(tenant)
	if t >= len(m.tenants) {
		t = len(m.tenants) - 1
	}
	ts := &m.tenants[t]
	ts.ops++
	if op == trace.OpWrite {
		ts.write.Observe(latency)
	} else {
		ts.read.Observe(latency)
	}
	ts.delay.Observe(delay)
}

// ReplayOptions selects the host queueing model of a measured replay.
type ReplayOptions struct {
	// QueueDepth caps the outstanding requests (0 and 1 both mean the
	// classic closed loop at queue depth 1).
	QueueDepth int
	// OpenLoop issues requests at their trace arrival times instead of
	// generating the next request when a queue slot frees.
	OpenLoop bool
}

// ReplayQueued replays the stream under a host queueing model, as one
// discrete-event loop over a single time-ordered heap (internal/sched):
// open-loop arrivals, queue-slot issues and per-request completions are
// first-class events popped in (time, FIFO) order, so the whole replay
// is a deterministic fold over one event sequence.
//
// Closed loop (the default): up to QueueDepth requests are outstanding
// at once. A pulled request schedules its issue event immediately when a
// slot is free (at the current issue clock), otherwise it waits for the
// next completion event, which schedules the issue at its own time — at
// depth 1 this degenerates to exactly the classic measured replay (each
// request issues at the previous one's completion), so results are
// bit-identical to the pre-queueing harness.
//
// Open loop: each request arrives as an event at its trace.Request.Time
// (clamped to be monotone) and latency is measured from arrival, so the
// recorded queueing delay grows with any backlog the device accumulates.
// QueueDepth still caps the outstanding requests; a request whose
// arrival pops with all slots full waits — in queueing delay — for a
// completion.
//
// The stream is pulled with a lookahead of exactly one request (pulled
// when its predecessor issues), so a trace never materializes beyond the
// single in-flight request no matter how long it is.
//
// Requests that schedule no device operation (reads of never-written
// LPNs) complete instantly, occupy no slot and record no sample:
// observing their 0 would drag the read percentiles toward zero on
// non-prefilled replays.
//
// Erases parked by the device's deferral policy commit inside the
// device: each issue and completion advances the device clock
// (nand.Device.AdvanceTo), which books every parked erase whose deadline
// has passed, so clock-aware dispatch placing a later block sees it even
// when no operation has reached that chip since. Deadlines lie strictly
// after the issue that parked them, so every deadline at or before an
// issue's time is booked before that issue runs. Once the heap is dry,
// one FlushDeferredErases books the erases whose deadlines lie past the
// last completion; the host clock ends at that completion — the same
// instant the classic loop always ended on.
//
// m is required: it receives every completed request's latency and
// queueing delay, plus the replay's event count. When m.EnableTenants
// is active, every issue first announces the request's tenant to the
// FTL (through the optional SetTenant method ftl.Base provides), so
// tenant-aware dispatch sees the owner of every allocation the request
// triggers.
func ReplayQueued(f ftl.FTL, src trace.Stream, m *ReplayMetrics, opts ReplayOptions) error {
	dev := f.Device()
	pageSize := dev.Config().PageSize
	qd := opts.QueueDepth
	if qd < 1 {
		qd = 1
	}
	// Resolve the tenant announcement target once: on multi-tenant runs
	// every issue tells the FTL which tenant it is about to serve, so the
	// dispatch policy can route the request's allocations (and the GC
	// they cascade into) to that tenant's chips. Single-tenant runs leave
	// setTenant nil and take the pre-tenant path byte for byte.
	var setTenant interface{ SetTenant(int) }
	if m.TenantCount() > 0 {
		setTenant, _ = f.(interface{ SetTenant(int) })
	}
	var (
		events      sched.Queue
		pending     int           // outstanding requests (completion events in flight)
		lastArrival time.Duration // monotone clamp of open-loop arrivals
		cur         trace.Request // the single in-flight request (pulled, not yet issued)
		curArrival  time.Duration // its clamped arrival, open loop only
		waiting     bool          // cur found every slot full; next completion issues it
		popped      uint64
	)
	// pull fetches the next request and schedules how it enters the
	// queue: open loop as an arrival event at its trace time, closed loop
	// as an issue event at the current clock when a slot is free — or as
	// the waiting request a future completion will issue.
	pull := func() {
		r, ok := src.Next()
		if !ok {
			return
		}
		cur = r
		if opts.OpenLoop {
			arrival := r.Time
			if arrival < lastArrival {
				arrival = lastArrival
			}
			lastArrival = arrival
			curArrival = arrival
			events.Push(sched.Event{Time: arrival, Kind: sched.KindArrival})
		} else if pending < qd {
			events.Push(sched.Event{Time: dev.Now(), Kind: sched.KindIssue})
		} else {
			waiting = true
		}
	}
	pull()
	for events.Len() > 0 {
		e := events.Pop()
		popped++
		switch e.Kind {
		case sched.KindArrival:
			if pending < qd {
				events.Push(sched.Event{Time: e.Time, Kind: sched.KindIssue})
			} else {
				waiting = true
			}
		case sched.KindIssue:
			dev.AdvanceTo(e.Time)
			issue := e.Time
			if opts.OpenLoop {
				// Latency is measured from arrival either way; any slot
				// wait between arrival and this issue lands in the
				// request's queueing delay.
				issue = curArrival
			}
			r := cur
			if setTenant != nil {
				setTenant.SetTenant(int(r.Tenant))
			}
			dev.BeginBurst()
			if err := issueRequest(f, r, pageSize); err != nil {
				return err
			}
			if dev.BurstOps() > 0 {
				fin := dev.BurstFinish()
				m.observe(r.Op, r.Tenant, fin-issue, dev.BurstStart()-issue)
				events.Push(sched.Event{Time: fin, Kind: sched.KindCompletion})
				pending++
			}
			pull()
		case sched.KindCompletion:
			dev.AdvanceTo(e.Time)
			pending--
			if waiting {
				waiting = false
				events.Push(sched.Event{Time: e.Time, Kind: sched.KindIssue})
			}
		}
	}
	dev.FlushDeferredErases()
	m.Events += popped
	return nil
}

// issueRequest splits one trace request into page-level FTL operations.
//
//flashvet:hotpath
func issueRequest(f ftl.FTL, r trace.Request, pageSize int) error {
	first, last := r.Pages(pageSize)
	for lpn := first; lpn <= last; lpn++ {
		if r.Op == trace.OpWrite {
			if err := f.Write(lpn, int(r.Size)); err != nil {
				return fmt.Errorf("write lpn %d: %w", lpn, err)
			}
		} else {
			if _, err := f.Read(lpn); err != nil {
				return fmt.Errorf("read lpn %d: %w", lpn, err)
			}
		}
	}
	return nil
}

func collect(spec RunSpec, f ftl.FTL, eraseBase uint64, relBase nand.ReliabilityStats, readsBase, opsBase, suspendsBase uint64, rm *ReplayMetrics) Result {
	st := f.Stats()
	res := Result{
		Name:          spec.Name,
		Kind:          spec.Kind,
		ReadTotal:     st.ReadTotal(),
		WriteTotal:    st.WriteTotal(),
		HostReadPages: st.HostReads.Value(),
		HostWritePage: st.HostWrites.Value(),
		UnmappedReads: st.UnmappedReads.Value(),
		Erases:        f.Device().TotalErases() - eraseBase,
		GCCopies:      st.GCCopies.Value(),
		WAF:           st.WAF(),
	}
	res.ReadP50 = rm.ReadLatency.Quantile(0.50)
	res.ReadP95 = rm.ReadLatency.Quantile(0.95)
	res.ReadP99 = rm.ReadLatency.Quantile(0.99)
	res.WriteP50 = rm.WriteLatency.Quantile(0.50)
	res.WriteP95 = rm.WriteLatency.Quantile(0.95)
	res.WriteP99 = rm.WriteLatency.Quantile(0.99)
	res.QueueDelayP50 = rm.QueueDelay.Quantile(0.50)
	res.QueueDelayP95 = rm.QueueDelay.Quantile(0.95)
	res.QueueDelayP99 = rm.QueueDelay.Quantile(0.99)
	res.Makespan = f.Device().Makespan()
	res.Suspends = f.Device().Suspends() - suspendsBase
	ds := f.Device().Stats()
	res.DeviceOps = ds.Reads.Value() + ds.Programs.Value() + f.Device().TotalErases() - opsBase
	if s := res.Makespan.Seconds(); s > 0 {
		res.SimOpsPerSec = float64(res.DeviceOps) / s
	}
	res.ReplayEvents = rm.Events
	if n := rm.TenantCount(); n > 0 {
		res.TenantCount = n
		for t := 0; t < n; t++ {
			res.Tenants[t] = rm.TenantResult(t)
		}
	}
	if reads := st.FastReads.Value() + st.SlowReads.Value(); reads > 0 {
		res.FastReadShare = float64(st.FastReads.Value()) / float64(reads)
	}
	if rs := f.Device().ReliabilityStats(); rs != (nand.ReliabilityStats{}) {
		res.RetriedReads = rs.Retried - relBase.Retried
		res.RetrySteps = rs.Steps - relBase.Steps
		res.UncorrectableReads = rs.Uncorrectable - relBase.Uncorrectable
		res.RetiredBlocks = rs.Retired
		if reads := f.Device().Stats().Reads.Value() - readsBase; reads > 0 {
			res.RetryRate = float64(res.RetriedReads) / float64(reads)
		}
		if res.RetriedReads > 0 {
			res.MeanRetrySteps = float64(res.RetrySteps) / float64(res.RetriedReads)
		}
	}
	if p, ok := f.(*core.PPB); ok {
		ps := p.PPBStats()
		res.Migrations = ps.Migrations.Value()
		res.Diversions = ps.Diversions.Value()
		res.Demotions = ps.Demotions.Value()
	}
	return res
}
