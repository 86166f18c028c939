// Package ppbflash is a trace-driven simulator for 3D charge-trap NAND
// flash with the asymmetric per-layer page access speed characteristic,
// and a full implementation of the Progressive Performance Boosting (PPB)
// FTL strategy from:
//
//	Shuo-Han Chen, Yen-Ting Chen, Hsin-Wen Wei, Wei-Kuan Shih.
//	"Boosting the Performance of 3D Charge Trap NAND Flash with
//	Asymmetric Feature Process Size Characteristic." DAC 2017.
//
// This root package is the stable facade over the implementation
// packages: device model (internal/nand), FTL framework and baselines
// (internal/ftl), the PPB strategy (internal/core), hot/cold
// identification (internal/hotness), synthetic MSR-style workloads
// (internal/workload), and the experiment harness (internal/harness).
// It exports what the commands, examples and benchmarks use: PPB has a
// constructor, and every strategy, the baselines included, runs by kind
// through RunSpec (FTLKindNames lists them).
//
// # Quick start
//
//	cfg := ppbflash.TableOneConfig().Scaled(64) // 1 GB-class device
//	dev, _ := ppbflash.NewDevice(cfg)
//	f, _ := ppbflash.NewPPB(dev, ppbflash.PPBOptions{})
//	f.Write(0, 512)   // small write -> hot area
//	f.Read(0)         // promotes to iron-hot
//
// See examples/ for runnable scenarios and cmd/ppbench for regenerating
// every figure of the paper.
package ppbflash

import (
	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/hotness"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/vblock"
	"ppbflash/internal/workload"
)

// Device model (internal/nand).
type (
	// DeviceConfig describes the geometry and timing of a simulated 3D
	// charge-trap NAND device.
	DeviceConfig = nand.Config
	// Device is a simulated 3D charge-trap NAND device.
	Device = nand.Device
)

// NewDevice builds a device from a validated config.
func NewDevice(cfg DeviceConfig) (*Device, error) { return nand.NewDevice(cfg) }

// TableOneConfig returns the paper's Table 1 parameter set (64 GB, 16 KB
// pages, 384 pages/block, 49 µs read, 600 µs program, 4 ms erase).
func TableOneConfig() DeviceConfig { return nand.TableOneConfig() }

// FTL framework (internal/ftl).
type (
	// FTL is the host-visible flash-translation-layer interface.
	FTL = ftl.FTL
	// FTLOptions tunes over-provisioning, garbage collection, chip
	// dispatch and erase deferral.
	FTLOptions = ftl.Options
)

// DispatchPolicy selects the chip of every fresh block allocation
// (internal/vblock, FTLOptions.Dispatch): where fresh blocks — and with
// them every write stream — land on a multi-chip device.
type DispatchPolicy = vblock.DispatchPolicy

// DispatchByName resolves a dispatch policy from its name ("striped",
// "least-loaded", "hotcold-affinity", "tenant-partition") — the spelling
// flashsim -dispatch accepts.
func DispatchByName(name string) (DispatchPolicy, error) { return vblock.DispatchByName(name) }

// DispatchPolicyNames lists the dispatch policies in presentation
// order.
var DispatchPolicyNames = vblock.DispatchPolicyNames

// Reliability model (internal/nand) and wear leveling (internal/ftl).
type (
	// ReliabilityConfig parameterizes the layer-aware reliability model:
	// per-page RBER from layer skew, P/E cycling and retention age, read
	// retry with ECC-decode latency, and bad-block retirement thresholds.
	ReliabilityConfig = nand.ReliabilityConfig
	// WearPolicy selects the GC wear-leveling policy: none keeps the
	// historic wear tie-break only; wear-aware relaxes greedy victim
	// selection toward the least-worn block among the most-invalid
	// candidates; threshold-swap additionally recycles cold, fully-valid
	// blocks once the wear spread reaches 8 erases.
	WearPolicy = ftl.WearPolicy
)

// WearByName resolves a wear policy from its name ("none",
// "wear-aware", "threshold-swap") — the spelling flashsim -wear
// accepts.
func WearByName(name string) (WearPolicy, error) { return ftl.WearByName(name) }

// ReliabilityProfileByName resolves a built-in reliability preset from
// its name ("off", "low", "high") — the spelling flashsim -reliability
// accepts.
func ReliabilityProfileByName(name string) (ReliabilityConfig, error) {
	return nand.ReliabilityProfileByName(name)
}

// Intra-chip parallelism (internal/nand): multi-plane overlap and
// program/erase suspend-resume.

// SuspendPolicy selects which in-flight operation kinds an incoming
// read may preempt (Device.SetSuspend, FTLOptions.Suspend): off never
// preempts, erase suspends in-flight erases only (the common hardware
// capability), full suspends programs too.
type SuspendPolicy = nand.SuspendPolicy

// SuspendByName resolves a suspend policy from its name ("off",
// "erase", "full"; empty means off) — the spelling flashsim -suspend
// accepts.
func SuspendByName(name string) (SuspendPolicy, error) { return nand.SuspendByName(name) }

// The PPB strategy (internal/core).
type (
	// PPB is the progressive performance boosting FTL — the paper's
	// contribution.
	PPB = core.PPB
	// PPBOptions tunes the PPB strategy.
	PPBOptions = core.Options
)

// NewPPB builds a PPB FTL over the device.
func NewPPB(dev *Device, opt PPBOptions) (*PPB, error) { return core.New(dev, opt) }

// Hot/cold identification (internal/hotness).
type (
	// Level is one of the paper's four data hotness levels.
	Level = hotness.Level
	// Area is the first-stage classification result (hot or cold).
	Area = hotness.Area
	// Identifier is the pluggable first-stage hot/cold mechanism.
	Identifier = hotness.Identifier
	// SizeCheck is the paper's case-study identifier.
	SizeCheck = hotness.SizeCheck
)

// The four hotness levels and two areas.
const (
	IcyCold = hotness.IcyCold
	Cold    = hotness.Cold
	Hot     = hotness.Hot
	IronHot = hotness.IronHot

	AreaHot  = hotness.AreaHot
	AreaCold = hotness.AreaCold
)

// Traces and workloads (internal/trace, internal/workload).
type (
	// Request is one block-level I/O.
	Request = trace.Request
	// Generator streams a deterministic synthetic workload, or any other
	// request source a RunSpec replays: Next returns the next request, or
	// ok=false at end of stream, and Name/LogicalBytes carry labeling and
	// sizing metadata. Requests are pulled one at a time, so traces replay
	// without in-memory materialization.
	Generator = workload.Generator
	// MediaServerConfig parameterizes the media-server stand-in trace.
	MediaServerConfig = workload.MediaConfig
	// WebSQLConfig parameterizes the web/SQL stand-in trace.
	WebSQLConfig = workload.WebSQLConfig
	// Compositor merges tenant streams round-robin into one
	// multi-tenant Stream; each child carries its tenant ID and address
	// region, and its n-th request arrives at n µs.
	Compositor = trace.Compositor
	// CompositorChild configures one tenant stream of a Compositor.
	CompositorChild = trace.CompositorChild
)

// MaxTenants is the per-run tenant accounting capacity: tenant IDs at or
// beyond it fold into the last accounting slot.
const MaxTenants = trace.MaxTenants

// NewCompositor builds a multi-tenant stream compositor over the given
// children, which take their turns in slice order.
func NewCompositor(children ...CompositorChild) *Compositor {
	return trace.NewCompositor(children...)
}

// NewMediaServer builds the media-server stand-in generator.
func NewMediaServer(cfg MediaServerConfig) Generator { return workload.NewMediaServer(cfg) }

// NewWebSQL builds the web/SQL stand-in generator.
func NewWebSQL(cfg WebSQLConfig) Generator { return workload.NewWebSQL(cfg) }

// Experiment harness (internal/harness).
type (
	// RunSpec describes one simulation run.
	RunSpec = harness.RunSpec
	// RunResult carries the measurements of one run.
	RunResult = harness.Result
	// Scale controls experiment size (QuickScale/BenchScale/PaperScale).
	Scale = harness.Scale
	// FigureResult is a regenerated paper artifact.
	FigureResult = harness.FigureResult
	// FTLKind selects the strategy a run uses.
	FTLKind = harness.FTLKind
	// ReplayMetrics accumulates per-request completion latency during a
	// replay (see RunEventLoop).
	ReplayMetrics = harness.ReplayMetrics
)

// Strategy kinds for RunSpec; FTLKindNames lists every kind.
const (
	KindConventional = harness.KindConventional
	KindPPB          = harness.KindPPB
)

// Experiment scales.
var (
	// QuickScale runs on a 512 MB-class device (CI speed).
	QuickScale = harness.QuickScale
	// BenchScale runs on a 2 GB-class device (default for benchmarks).
	BenchScale = harness.BenchScale
	// PaperScale replays against the full 64 GB Table 1 device.
	PaperScale = harness.PaperScale
)

// Run executes one simulation run.
func Run(spec RunSpec) (RunResult, error) { return harness.Run(spec) }

// RunAll executes the specs on a worker pool of the given parallelism
// (0 = GOMAXPROCS) and returns results in spec order. Each run owns its
// device, so results are identical to sequential Run calls.
func RunAll(specs []RunSpec, parallelism int) ([]RunResult, error) {
	return harness.RunAll(specs, parallelism)
}

// NewPageOpsFTL builds the standard page-op microbenchmark subject
// shared by the repo benchmarks and ppbench -json.
func NewPageOpsFTL(kind FTLKind) (FTL, error) { return harness.NewPageOpsFTL(kind) }

// NewReliabilityPageOpsFTL builds the page-op microbenchmark subject
// with the reliability model enabled (the retried-read hot path), shared
// by BenchmarkReliabilityPageOps and ppbench -json.
func NewReliabilityPageOpsFTL() (FTL, error) { return harness.NewReliabilityPageOpsFTL() }

// NewIntraChipPageOpsFTL builds the page-op microbenchmark subject with
// intra-chip parallelism enabled (multi-plane booking and erase
// suspension — the a8 hot paths), shared by BenchmarkIntraChipPageOps
// and ppbench -json.
func NewIntraChipPageOpsFTL() (FTL, error) { return harness.NewIntraChipPageOpsFTL() }

// NewTenantPageOpsFTL builds the multi-tenant microbenchmark subject
// (four chips, tenant-partition dispatch, four tenants — the a10 hot
// paths), shared by BenchmarkCompositorEventLoop and ppbench -json.
func NewTenantPageOpsFTL() (FTL, error) { return harness.NewTenantPageOpsFTL() }

// FTLKindNames lists the FTL strategy kinds in presentation order — the
// spellings RunSpec.Kind and flashsim -ftl accept.
var FTLKindNames = harness.FTLKindNames

// RunPageOps executes n iterations of the standard page-op loop.
func RunPageOps(f FTL, n int) error { return harness.RunPageOps(f, n) }

// RunEventLoop replays n synthetic requests through the measured
// discrete-event replay loop — the shared body of BenchmarkEventLoop and
// ppbench -json's EventLoop microbenchmark.
func RunEventLoop(f FTL, m *ReplayMetrics, n int) error { return harness.RunEventLoop(f, m, n) }

// RunCompositorEventLoop replays n synthetic requests from a four-tenant
// stream compositor through the measured replay with per-tenant
// attribution and dispatch active — the shared body of
// BenchmarkCompositorEventLoop and ppbench -json's CompositorEventLoop
// microbenchmark.
func RunCompositorEventLoop(f FTL, m *ReplayMetrics, n int) error {
	return harness.RunCompositorEventLoop(f, m, n)
}

// NewReplayMetrics builds the request-latency histograms RunEventLoop
// and RunCompositorEventLoop record into.
func NewReplayMetrics() *ReplayMetrics { return harness.NewReplayMetrics() }

// Experiment runs one of the paper's experiments by ID ("12".."18" for
// figures, "3" for the motivation study, "a1".."a8" for ablations — the
// chip-parallel, queue-depth, dispatch-policy, causality/erase-deferral
// and intra-chip parallelism sweeps — "a9" for the reliability-engine
// sweep, and "a10" for the multi-tenant fairness sweep).
func Experiment(id string, s Scale) (*FigureResult, error) { return harness.RunExperiment(id, s) }

// ExperimentIDs lists the available experiment IDs in presentation order.
func ExperimentIDs() []string { return harness.ExperimentIDs() }

// TableOne renders the paper's Table 1.
func TableOne() *FigureResult { return harness.TableOne() }
