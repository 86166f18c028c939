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
//
// Both traces draw their Zipf popularity through zipf, which returns the
// values, and consumes the seed's draws, of math/rand's Zipf exactly, but
// decides most draws from per-sampler lookup tables instead of a log and
// an exp each; see zipf for why the two cannot disagree.
package workload

import "ppbflash/internal/trace"

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
