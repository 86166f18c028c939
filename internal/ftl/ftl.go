// Package ftl provides the flash-translation-layer framework shared by
// all strategies: page-level mapping, host/GC cost attribution, greedy
// garbage collection — plus the three reference FTLs the experiments
// compare against:
//
//   - Conventional: the paper's baseline. Page-mapping with one active
//     block and greedy GC; completely speed-oblivious.
//   - GreedySpeed: the naive strawman from the paper's motivation
//     (Figure 3). It places hot data directly into fast pages and cold
//     data into slow pages of the *same* physical blocks, which ruins GC
//     efficiency exactly as §2.2 predicts.
//   - HotColdSplit: classic hot/cold block separation without any speed
//     awareness; isolates how much of PPB's win comes from speed-aware
//     placement rather than plain separation.
//
// The PPB strategy itself lives in internal/core and plugs into the same
// FTL interface.
//
// A strategy places pages; Base writes, maps, invalidates and collects.
// Each strategy embeds Base and hands NewBase only its Placement: where
// a host write lands, where a GC relocation lands, and optionally which
// pages of a victim relocate first. Base.Write is the one host-write
// path: it checks the LPN, runs GC at the low-water mark, has the
// placement program the new copy, maps it and then invalidates the old
// copy; GC relocation keeps the same program-map-invalidate order.
//
// Every strategy allocates blocks through vblock.Manager, which also
// keeps each pool's write points (Manager.Open): a strategy only picks
// which block a page goes to and programs it through Base.ProgramNext,
// the one page-programming path, so no strategy keeps open-block state
// of its own. The manager's dispatch policy (Options.Dispatch) decides
// which chip each newly opened block lands on: round-robin striping by
// default, the idlest chip under vblock.LeastLoaded, a hot/cold chip
// split under vblock.HotColdAffinity, or per-tenant chips under
// vblock.TenantPartition. Strategies need no chip awareness of their
// own beyond declaring their hot-stream pools (Manager.MarkHotPools).
package ftl

import (
	"errors"
	"fmt"
	"time"

	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// FTL is the host-visible interface of a flash translation layer. Hosts
// issue page-granular logical reads and writes; the FTL manages mapping,
// allocation and garbage collection underneath.
type FTL interface {
	// Name identifies the strategy in reports.
	Name() string
	// Write stores one logical page. reqSize is the byte length of the
	// host request the page belongs to; identifiers such as the paper's
	// size-check use it to judge hotness.
	Write(lpn uint64, reqSize int) error
	// Read fetches one logical page. mapped is false when the page was
	// never written (the read is counted but costs nothing).
	Read(lpn uint64) (mapped bool, err error)
	// Stats exposes the accumulated cost and activity counters.
	Stats() *Stats
	// LogicalPages is the exported logical address space size.
	LogicalPages() uint64
	// Device returns the underlying simulated device.
	Device() *nand.Device
}

// ErrNoSpace is returned when a write cannot find a free page even after
// garbage collection; it means the logical space overcommits the device.
var ErrNoSpace = errors.New("ftl: out of flash space")

// Options tunes the shared FTL machinery.
type Options struct {
	// OverProvision is the fraction of raw capacity hidden from the
	// logical space (default 0.10).
	OverProvision float64
	// Dispatch is the chip-dispatch policy consulted whenever a fresh
	// physical block is allocated — host writes, GC relocations and
	// hot/cold stream pipelines alike. The zero value vblock.Striped is
	// round-robin channel striping, the historical behavior;
	// vblock.LeastLoaded follows the device's per-chip service clocks to
	// the idlest chip, vblock.HotColdAffinity pins hot-stream pools to a
	// chip subset, and vblock.TenantPartition gives each tenant its own
	// chips. Single-chip devices behave identically under every policy.
	Dispatch vblock.DispatchPolicy
	// DeferErases routes GC erases through the device's per-chip
	// deferred queue (nand.Device.SetEraseDeferral): an erase issued
	// against a busy chip lets later host operations go first and
	// commits at the chip's next idle gap, at the latest 8 erase
	// latencies after issue (eraseDeferFactor). Off by default:
	// deferral reorders the timeline even on a single chip.
	DeferErases bool
	// Suspend selects the program/erase suspend-resume policy installed
	// on the device (nand.Device.SetSuspend): SuspendOff (the zero value,
	// bit-identical to the pre-suspend model), SuspendErase (reads may
	// preempt in-flight erases) or SuspendFull (erases and programs),
	// each suspension costing 25µs to suspend and 25µs to resume
	// (suspendCost, resumeCost).
	Suspend nand.SuspendPolicy
	// ReorderWindow bounds how far before its chip's busiest plane
	// drains an op on another plane may start — the multi-plane overlap
	// knob (nand.Device.SetReorderWindow). Zero defaults to 4x the
	// device's erase latency when the config has Planes > 1 and is
	// ignored (chips stay serial) on single-plane configs.
	ReorderWindow time.Duration
	// Wear selects the wear-leveling policy layered on GC victim
	// selection (see WearPolicy). The zero value WearNone keeps the
	// historic greedy behavior bit-identical.
	Wear WearPolicy
	// Reliability installs the layer-aware reliability model on the
	// device at construction (nil leaves the model off; a disabled
	// config is equivalent). See nand.ReliabilityConfig and
	// nand.ReliabilityProfileByName for the built-in presets.
	Reliability *nand.ReliabilityConfig
	// ReliabilitySeed seeds the model's fault-injection PRNG; equal
	// seeds reproduce identical fault sequences at any run parallelism.
	ReliabilitySeed int64
	// Tenants declares the tenant population sharing the FTL (the
	// replay's distinct Request.Tenant IDs). Values above 1 enable
	// tenant-aware dispatch: the vblock manager learns the population at
	// construction and the harness announces the active tenant per
	// request through Base.SetTenant. Zero or 1 (the single-stream
	// replays) leaves every dispatch policy bit-identical to its
	// pre-tenant behavior.
	Tenants int
}

// Fixed settings of the deferral, suspend and wear machinery.
const (
	// eraseDeferFactor bounds how long a deferred erase may wait before
	// it is force-committed, in multiples of the device's erase latency
	// (Options.DeferErases).
	eraseDeferFactor = 8
	// suspendCost is the device time a read pays before it can sense
	// while the preempted op winds down; resumeCost is the time the
	// preempted op pays before its remainder restarts (Options.Suspend).
	suspendCost = 25 * time.Microsecond
	resumeCost  = 25 * time.Microsecond
	// wearThreshold is the max-vs-min erase-count spread that triggers a
	// WearThresholdSwap static swap.
	wearThreshold = 8
)

// wearWindow is how many invalid-count buckets below the greedy top
// WearAware may reach for a less-worn victim: an eighth of a block, at
// least one.
func wearWindow(cfg *nand.Config) int { return max(cfg.PagesPerBlock/8, 1) }

func (o Options) withDefaults(cfg nand.Config) Options {
	if cfg.PlaneCount() > 1 && o.ReorderWindow == 0 {
		o.ReorderWindow = 4 * cfg.EraseLatency
	}
	return o
}

// validate rejects nonsensical option combinations.
func (o Options) validate() error {
	if o.OverProvision < 0 || o.OverProvision >= 0.9 {
		return fmt.Errorf("ftl: over-provision %g out of [0, 0.9)", o.OverProvision)
	}
	if o.Dispatch > vblock.TenantPartition {
		return fmt.Errorf("ftl: unknown dispatch policy %d", o.Dispatch)
	}
	if o.Suspend > nand.SuspendFull {
		return fmt.Errorf("ftl: unknown suspend policy %d", o.Suspend)
	}
	if o.ReorderWindow < 0 {
		return fmt.Errorf("ftl: negative reorder window %v", o.ReorderWindow)
	}
	if o.Wear > WearThresholdSwap {
		return fmt.Errorf("ftl: unknown wear policy %d", o.Wear)
	}
	if o.Reliability != nil {
		if err := o.Reliability.Validate(); err != nil {
			return err
		}
	}
	if o.Tenants < 0 {
		return fmt.Errorf("ftl: negative tenant count %d", o.Tenants)
	}
	return nil
}

// Stats aggregates host-attributed costs and FTL activity. Read/write
// latency totals are what the paper's Figures 13–17 plot; erase counts
// feed Figure 18.
type Stats struct {
	HostReads     metrics.Counter // mapped page reads served
	HostWrites    metrics.Counter // host page programs
	UnmappedReads metrics.Counter // reads of never-written pages

	ReadLatency  metrics.Latency // device time of host reads
	WriteLatency metrics.Latency // device time of host programs
	GCLatency    metrics.Latency // device time of GC copies and erases

	GCCopies metrics.Counter // valid pages moved by GC
	GCErases metrics.Counter // blocks erased by GC

	// FastReads/SlowReads split host reads by the speed group of the
	// page that served them (placement quality probe).
	FastReads metrics.Counter
	SlowReads metrics.Counter
}

// WriteTotal is the total write-path time: host programs plus the GC work
// those programs forced. This is the quantity Figures 16/17 compare.
func (s *Stats) WriteTotal() time.Duration {
	return s.WriteLatency.Total + s.GCLatency.Total
}

// ReadTotal is the total read-path time (Figures 13/14).
func (s *Stats) ReadTotal() time.Duration { return s.ReadLatency.Total }

// WAF returns the write amplification factor (host+GC programs over host
// programs); 1.0 when no GC ran.
func (s *Stats) WAF() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(uint64(s.HostWrites)+uint64(s.GCCopies)) / float64(uint64(s.HostWrites))
}

// LogicalPagesFor returns the logical space (in pages) exported over a
// device with the given over-provisioning, where 0 means the default
// 0.10 (Options.OverProvision). It is the one place that default lives:
// NewBase builds the mapping from it and PPB sizes its GC reserve from
// it.
func LogicalPagesFor(cfg nand.Config, overProvision float64) uint64 {
	if overProvision == 0 {
		overProvision = 0.10
	}
	return uint64(float64(cfg.TotalPages()) * (1 - overProvision))
}

// unmapped marks a logical page with no physical page. nand.Config.Validate
// caps a device below 2^32 pages, so every PPN is below it.
const unmapped = ^uint32(0)

// Mapping is a dense logical-to-physical page map: one 32-bit PPN per
// logical page, 4 bytes each, with unmapped marking a page never written.
type Mapping struct {
	table []uint32
}

// NewMapping builds an all-unmapped table for n logical pages.
func NewMapping(n uint64) *Mapping {
	t := make([]uint32, n)
	for i := range t {
		t[i] = unmapped
	}
	return &Mapping{table: t}
}

// pages returns the logical page count.
func (m *Mapping) pages() uint64 { return uint64(len(m.table)) }

// Lookup returns the physical page of lpn; ok is false when unmapped.
func (m *Mapping) Lookup(lpn uint64) (nand.PPN, bool) {
	if lpn >= uint64(len(m.table)) {
		return 0, false
	}
	p := m.table[lpn]
	return nand.PPN(p), p != unmapped
}

// Set maps lpn to ppn and returns the previous mapping if there was one.
// ppn must come from a device nand.Config.Validate accepted.
func (m *Mapping) Set(lpn uint64, ppn nand.PPN) (old nand.PPN, hadOld bool) {
	prev := m.table[lpn]
	m.table[lpn] = uint32(ppn)
	return nand.PPN(prev), prev != unmapped
}

// inRange reports whether lpn is inside the logical space.
func (m *Mapping) inRange(lpn uint64) bool { return lpn < uint64(len(m.table)) }
