// Package workload synthesizes block-level request streams that stand in
// for the two MSR Cambridge enterprise traces the paper replays: a *media
// server* and a *web/SQL server*. The real traces are not redistributable,
// so the generators reproduce the statistical properties the PPB strategy
// is sensitive to:
//
//   - media server: large write-once-read-many files with Zipf popularity,
//     sequential streaming reads, bulk ingest writes, and a small very hot
//     metadata region — mostly cold-area traffic with a popular subset.
//   - web/SQL: small skewed DB-page updates and re-reads, sequential log
//     appends, very hot index/metadata pages, occasional scans — mostly
//     hot-area traffic with a highly re-accessed subset.
//
// Every generator is deterministic given its seed and streams requests so
// multi-million-request traces need no in-memory materialization.
package workload

import (
	"fmt"
	"math/rand"

	"ppbflash/internal/trace"
)

// Generator streams a deterministic request sequence. It is a
// trace.Stream plus the metadata a harness needs to size the device and
// label the run, so any generator plugs directly into the replay loop.
type Generator interface {
	// Name identifies the workload (used in result tables).
	Name() string
	// LogicalBytes is the highest logical byte the stream may touch; the
	// FTL's logical space must be at least this large.
	LogicalBytes() uint64
	// Stream supplies the requests: Next returns the next request, or
	// ok=false when the stream ends.
	trace.Stream
}

// Func adapts a closure into a Generator.
type Func struct {
	WorkloadName string
	Bytes        uint64
	NextFunc     func() (trace.Request, bool)
}

// Name implements Generator.
func (f *Func) Name() string { return f.WorkloadName }

// LogicalBytes implements Generator.
func (f *Func) LogicalBytes() uint64 { return f.Bytes }

// Next implements Generator.
func (f *Func) Next() (trace.Request, bool) { return f.NextFunc() }

// alignDown rounds v down to a multiple of align (align > 0).
func alignDown(v uint64, align uint64) uint64 { return v - v%align }

// zipf wraps rand.Zipf to draw skewed indices in [0, n).
type zipf struct {
	z *rand.Zipf
}

// newZipf builds a Zipf sampler over [0, n) with skew s (> 1; larger is
// more skewed). Panics on invalid parameters to surface config bugs early.
func newZipf(rng *rand.Rand, s float64, n uint64) zipf {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	if s <= 1 {
		panic(fmt.Sprintf("workload: zipf skew must be > 1, got %g", s))
	}
	return zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

func (z zipf) draw() uint64 { return z.z.Uint64() }
