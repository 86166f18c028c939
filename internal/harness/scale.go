package harness

import (
	"fmt"

	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// Scale controls how much of the paper's full experimental setup a run
// uses. The full Table 1 device (64 GB) with multi-day MSR traces is
// reproducible but slow; the default scales keep every experiment's
// *shape* while shrinking the device and trace proportionally.
type Scale struct {
	// DeviceDivisor divides the Table 1 block count (1 = the paper's
	// full 64 GB device).
	DeviceDivisor int
	// WriteTurnover sizes each trace so that its write volume is about
	// this multiple of the logical space — enough to force steady-state
	// garbage collection (the regime Figures 13–18 measure).
	WriteTurnover float64
	// Seed drives the deterministic workload generators.
	Seed int64
	// Parallelism is how many simulation runs an experiment executes
	// concurrently through RunAll (each run owns its device, so results
	// are bit-identical at any setting). Zero means GOMAXPROCS; one
	// forces sequential execution.
	Parallelism int
}

// Preset scales.
var (
	// QuickScale is for unit tests and CI: a 1 GB-class device.
	QuickScale = Scale{DeviceDivisor: 64, WriteTurnover: 2.0, Seed: 1}
	// BenchScale is the default for `go test -bench` and cmd/ppbench:
	// a 2 GB-class device.
	BenchScale = Scale{DeviceDivisor: 32, WriteTurnover: 2.0, Seed: 1}
	// PaperScale replays against the full Table 1 device.
	PaperScale = Scale{DeviceDivisor: 1, WriteTurnover: 2.0, Seed: 1}
)

// Validate rejects nonsensical scales.
func (s Scale) Validate() error {
	if s.DeviceDivisor < 1 {
		return fmt.Errorf("harness: device divisor %d < 1", s.DeviceDivisor)
	}
	if s.WriteTurnover <= 0 {
		return fmt.Errorf("harness: write turnover %g <= 0", s.WriteTurnover)
	}
	return nil
}

// DeviceConfig returns the Table 1 device scaled down, with the given
// page size and speed ratio applied.
//
// Experiments charge cell latency only (no per-op bus transfer): the
// paper's 18.56% read enhancement exceeds the theoretical ceiling when a
// 533 MB/s transfer is added to every page op (≈14.8% at 2x/16 KB), so
// its latency accounting evidently covers the asymmetric cell time alone.
// The device model still supports transfer costing for other users
// (nand.Config.TransferBytesPerSec).
func (s Scale) DeviceConfig(pageSize int, speedRatio float64) nand.Config {
	cfg := nand.TableOneConfig().Scaled(s.DeviceDivisor)
	cfg.TransferBytesPerSec = 0
	if pageSize != cfg.PageSize {
		cfg = cfg.WithPageSize(pageSize)
	}
	return cfg.WithSpeedRatio(speedRatio)
}

// Approximate write bytes emitted per request by each generator, used to
// size traces for the requested turnover. Derived from the generators'
// defaults (mix shares times mean write sizes).
const (
	mediaWriteBytesPerReq  = 28 << 10 // 15% writes; ~70% of them 256K ingest, 30% 4K meta
	websqlWriteBytesPerReq = 2900     // 40% writes; ~7.2K average write
)

// requestsFor sizes a trace to hit the scale's write turnover.
func (s Scale) requestsFor(logicalBytes uint64, writeBytesPerReq float64) int {
	n := int(s.WriteTurnover * float64(logicalBytes) / writeBytesPerReq)
	if n < 10_000 {
		n = 10_000
	}
	return n
}

// MediaWorkload returns a builder for the media-server stand-in trace.
func (s Scale) MediaWorkload() WorkloadBuilder {
	return func(logicalBytes uint64) workload.Generator {
		return workload.NewMediaServer(workload.MediaConfig{
			LogicalBytes: logicalBytes,
			Requests:     s.requestsFor(logicalBytes, mediaWriteBytesPerReq),
			Seed:         s.Seed,
		})
	}
}

// WebSQLWorkload returns a builder for the web/SQL stand-in trace.
func (s Scale) WebSQLWorkload() WorkloadBuilder {
	return func(logicalBytes uint64) workload.Generator {
		return workload.NewWebSQL(workload.WebSQLConfig{
			LogicalBytes: logicalBytes,
			Requests:     s.requestsFor(logicalBytes, websqlWriteBytesPerReq),
			Seed:         s.Seed,
		})
	}
}

// tenantRegionAlign keeps per-tenant address regions aligned so region
// boundaries never split a page at any evaluated page size.
const tenantRegionAlign = 1 << 20

// Approximate write bytes per request of the two synthetic tenants in
// the roster, derived like the trace constants above (write fraction
// times request size).
const (
	hotTenantWriteBytesPerReq  = 0.7 * 4096   // 4 KiB requests, 70% writes
	coldTenantWriteBytesPerReq = 0.2 * 262144 // 256 KiB requests, 20% writes
)

// tenantGenerator builds tenant i's request source over its own region:
// the roster cycles websql (small skewed transactions), mediaserver
// (large sequential streams), a hot synthetic mix (4 KiB, write-heavy)
// and a cold one (256 KiB, read-heavy), so any adjacent pair of tenants
// stresses the device differently. Each tenant gets its own seed
// (s.Seed+i) and is sized for the scale's write turnover on its region.
func (s Scale) tenantGenerator(i int, regionBytes uint64) workload.Generator {
	switch i % 4 {
	case 0:
		return workload.NewWebSQL(workload.WebSQLConfig{
			LogicalBytes: regionBytes,
			Requests:     s.requestsFor(regionBytes, websqlWriteBytesPerReq),
			Seed:         s.Seed + int64(i),
		})
	case 1:
		return workload.NewMediaServer(workload.MediaConfig{
			LogicalBytes: regionBytes,
			Requests:     s.requestsFor(regionBytes, mediaWriteBytesPerReq),
			Seed:         s.Seed + int64(i),
		})
	case 2:
		return workload.NewUniform(workload.UniformConfig{
			LogicalBytes: regionBytes,
			Requests:     s.requestsFor(regionBytes, hotTenantWriteBytesPerReq),
			Seed:         s.Seed + int64(i),
			ReadFraction: 0.3,
			Size:         4 << 10,
		})
	default:
		return workload.NewUniform(workload.UniformConfig{
			LogicalBytes: regionBytes,
			Requests:     s.requestsFor(regionBytes, coldTenantWriteBytesPerReq),
			Seed:         s.Seed + int64(i),
			ReadFraction: 0.8,
			Size:         256 << 10,
		})
	}
}

// TenantWorkloads returns a builder for an n-tenant composite workload:
// the logical space is carved into n equal aligned regions, tenant i
// replays its own generator (see tenantGenerator's roster) inside region
// i, and a trace.Compositor merges the streams round-robin, each request
// stamped with its tenant ID and shifted into its region. Pair it with
// FTLOptions.Tenants = n so the replay and FTL see the population.
//
// n <= 1 returns the plain websql builder (WebSQLWorkload), the rung the
// single-tenant ladder compares against. n is capped at
// trace.MaxTenants.
func (s Scale) TenantWorkloads(n int) WorkloadBuilder {
	if n <= 1 {
		return s.WebSQLWorkload()
	}
	if n > trace.MaxTenants {
		n = trace.MaxTenants
	}
	return func(logicalBytes uint64) workload.Generator {
		region := (logicalBytes / uint64(n)) &^ (tenantRegionAlign - 1)
		children := make([]trace.CompositorChild, n)
		for i := range children {
			children[i] = trace.CompositorChild{
				Stream:     s.tenantGenerator(i, region),
				Tenant:     uint8(i),
				AddrOffset: uint64(i) * region,
			}
		}
		return &workload.Func{
			WorkloadName: fmt.Sprintf("tenant-mix-%d", n),
			Bytes:        logicalBytes,
			NextFunc:     trace.NewCompositor(children...).Next,
		}
	}
}
