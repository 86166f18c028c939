package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, notes and failed checks.
type report struct {
	workload  *workload
	e2e       []string // end-to-end metric names in print order
	layer     []string // per-layer metric names in print order
	metrics   map[string]metric
	notes     []string
	failures  []string
	attempted uint64
	failed    uint64
}

func newReport(w *workload) *report {
	return &report{workload: w, metrics: make(map[string]metric)}
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(names *[]string, name string, v float64, unit string) {
	*names = append(*names, name)
	r.metrics[name] = metric{v, unit}
}

// endToEnd adds the metrics a user of the simulator sees: medians of the
// host cost over the untraced replays, and the simulated results. Host
// cost is the process's CPU time, because the wall clock of a virtual
// machine also counts the time its host steals; the notes give the wall
// clock too. Units sim_us and sim_s mark time on the modelled device's
// clock.
func (r *report) endToEnd(sim simResult, hosts []hostResult, rss float64) {
	add := func(name string, v float64, unit string) { r.add(&r.e2e, name, v, unit) }
	add("cpu_s", median(hosts, func(h hostResult) float64 { return h.setup.add(h.replay).cpu.Seconds() }), "s")
	add("setup_s", median(hosts, func(h hostResult) float64 { return h.setup.cpu.Seconds() }), "s")
	add("devops_per_s", median(hosts, func(h hostResult) float64 {
		return float64(sim.devOps) / h.replay.cpu.Seconds()
	}), "1/s")
	add("max_rss_mib", rss, "MiB")
	add("sim_read_p50_us", us(sim.readP50), "sim_us")
	add("sim_read_p999_us", us(sim.readP999), "sim_us")
	add("sim_write_p999_us", us(sim.writeP999), "sim_us")
	add("sim_makespan_s", sim.makespan.Seconds(), "sim_s")
	add("waf", sim.waf, "ratio")
	add("complete_frac", 1-float64(sim.failed)/float64(sim.requests), "ratio")
	r.note("wall clock of a replay with setup: median %.4g s, of which %.1f%% not on the CPU",
		median(hosts, func(h hostResult) float64 { return h.setup.add(h.replay).wall.Seconds() }),
		100*median(hosts, func(h hostResult) float64 {
			t := h.setup.add(h.replay)
			return 1 - t.cpu.Seconds()/t.wall.Seconds()
		}))
	r.note("read percentiles over %d requests, %d beyond p999; write p999 over %d requests, %d beyond it",
		sim.readN, beyond(sim.readN, 0.999), sim.writeN, beyond(sim.writeN, 0.999))
	for _, tail := range []struct {
		name string
		n    int
	}{{"read", sim.readN}, {"write", sim.writeN}} {
		if b := beyond(tail.n, 0.999); b < 10 {
			r.fail("only %d %s samples lie beyond the p999 (need 10)", b, tail.name)
		}
	}
}

// perLayer adds the traced replay's per-layer metrics. Their times are
// wall-clock spans. untraced is the median CPU time of an untraced replay,
// which the traced replay's CPU time is compared with.
func (r *report) perLayer(sim simResult, host hostResult, tr *tracer, shares map[string]float64, untraced float64) {
	add := func(name string, v float64, unit string) { r.add(&r.layer, name, v, unit) }
	perCall := func(k spanKind) float64 {
		if tr.count[k] == 0 {
			return 0
		}
		return float64(tr.total[k].Nanoseconds()) / float64(tr.count[k])
	}
	replay := tr.total[spanReplay]
	self := replay - tr.total[spanNext] - tr.total[spanFTLRead] - tr.total[spanFTLWrite]
	add("setup.build_s", (tr.total[spanSetupDevice] + tr.total[spanSetupFTL]).Seconds(), "s")
	add("setup.prefill_s", tr.total[spanSetupPrefill].Seconds(), "s")
	add("trace.requests", float64(sim.requests), "count")
	add("trace.next_ns", perCall(spanNext), "ns")
	add("harness.replay_s", replay.Seconds(), "s")
	add("harness.events", float64(sim.events), "count")
	add("harness.self_ns_per_event", float64(self.Nanoseconds())/float64(sim.events), "ns")
	add("ftl.writes", float64(tr.count[spanFTLWrite]), "count")
	add("ftl.reads", float64(tr.count[spanFTLRead]), "count")
	add("ftl.write_ns", perCall(spanFTLWrite), "ns")
	add("ftl.read_ns", perCall(spanFTLRead), "ns")
	add("ftl.gc_copies", float64(sim.gcCopies), "count")
	add("ftl.erases", float64(sim.ftlErases), "count")
	add("core.fast_read_share", sim.fastReadShare, "ratio")
	add("core.migrations", float64(sim.migrations), "count")
	add("core.diversions", float64(sim.diversions), "count")
	add("core.demotions", float64(sim.demotions), "count")
	add("nand.reads", float64(sim.nandReads), "count")
	add("nand.programs", float64(sim.nandPrograms), "count")
	add("nand.erases", float64(sim.nandErases), "count")
	add("nand.retried_reads", float64(sim.retried), "count")
	for _, m := range cpuModules {
		add("cpu."+m, shares[m], "ratio")
	}
	add("runtime.alloc_mib", float64(host.allocBytes)/(1<<20), "MiB")
	add("runtime.gc_cycles", float64(host.gcCycles), "count")
	add("bench.trace_overhead_frac", host.replay.cpu.Seconds()/untraced-1, "ratio")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// print writes every metric by name and unit, the notes and the failed
// checks, and last the one-line JSON result: the end-to-end metrics, or
// the per-layer ones when traced is set.
func (r *report) print(out io.Writer, traced bool) {
	fmt.Fprintf(out, "workload %s: %s\n", r.workload.name, r.workload.why)
	for _, group := range []struct {
		title string
		names []string
	}{{"end-to-end", r.e2e}, {"per-layer (traced replay)", r.layer}} {
		fmt.Fprintf(out, "%s:\n", group.title)
		for _, n := range group.names {
			m := r.metrics[n]
			fmt.Fprintf(out, "  %-28s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
	names := r.e2e
	if traced {
		names = r.layer
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed, make(map[string]metric, len(names))}
	for _, n := range names {
		result.Metrics[n] = r.metrics[n]
	}
	line, _ := json.Marshal(result) // finite floats and strings always marshal
	fmt.Fprintln(out, string(line))
}
