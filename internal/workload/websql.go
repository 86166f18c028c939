package workload

import (
	"fmt"
	"math/rand"

	"ppbflash/internal/trace"
)

// WebSQLConfig parameterizes the synthetic web/SQL-server workload.
// Zero-valued fields take the documented defaults.
type WebSQLConfig struct {
	// LogicalBytes is the logical disk size (default 1 GiB).
	LogicalBytes uint64
	// Requests is the stream length (default 200k).
	Requests int
	// Seed makes the stream deterministic; 0 is a seed like any other.
	Seed int64
	// ReadFraction is the share of reads (default 0.60; OLTP-ish mix).
	ReadFraction float64
	// DBPageBytes is the database page size (default 8 KiB).
	DBPageBytes int
	// ZipfS is the row/page access skew (default 1.2 — web workloads
	// re-access a small working set very often).
	ZipfS float64
	// LogFraction is the share of the disk holding the redo log
	// (default 0.05).
	LogFraction float64
	// MetaFraction is the share holding hot index/catalog pages
	// (default 0.02).
	MetaFraction float64
}

func (c WebSQLConfig) withDefaults() WebSQLConfig {
	if c.LogicalBytes == 0 {
		c.LogicalBytes = 1 << 30
	}
	if c.Requests == 0 {
		c.Requests = 200_000
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.60
	}
	if c.DBPageBytes == 0 {
		c.DBPageBytes = 8 << 10
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.LogFraction == 0 {
		c.LogFraction = 0.05
	}
	if c.MetaFraction == 0 {
		c.MetaFraction = 0.02
	}
	return c
}

// websqlMetaSkew is the access skew over the index/catalog pages.
const websqlMetaSkew = 1.4

// WebSQL generates the web/SQL stand-in trace: Zipf-skewed small page
// updates and re-reads over a table region, sequential log appends, very
// hot index/catalog pages, and occasional sequential scans.
type WebSQL struct {
	cfg WebSQLConfig
	rng *rand.Rand

	emitted int

	metaBytes uint64 // [0, metaBytes): index/catalog
	logBase   uint64 // [logBase, dataBase): redo log
	dataBase  uint64 // [dataBase, LogicalBytes): table pages

	dataPages uint64
	dataPop   zipf
	metaPop   zipf

	logPos uint64

	// scan session
	scanPos    uint64
	scanChunks int
}

// NewWebSQL builds the generator. It panics (like the zipf helpers) when
// the logical space cannot hold even one page per region: generators are
// built from validated configs, and a silent wrap would corrupt offsets.
func NewWebSQL(cfg WebSQLConfig) *WebSQL {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &WebSQL{cfg: cfg, rng: rng}
	page := uint64(cfg.DBPageBytes)
	if cfg.LogicalBytes < 4*page {
		panic(fmt.Sprintf("workload: websql logical space %d below 4 DB pages (%d)",
			cfg.LogicalBytes, 4*page))
	}
	w.metaBytes = alignDown(uint64(float64(cfg.LogicalBytes)*cfg.MetaFraction), page)
	logBytes := alignDown(uint64(float64(cfg.LogicalBytes)*cfg.LogFraction), page)
	// Fractions that cannot leave one table page are a misconfiguration,
	// not a tiny-space artifact: fail loudly like the size check above.
	if w.metaBytes+logBytes > cfg.LogicalBytes-page {
		panic(fmt.Sprintf("workload: websql meta+log fractions (%g+%g) leave no table region in %d bytes",
			cfg.MetaFraction, cfg.LogFraction, cfg.LogicalBytes))
	}
	if w.metaBytes < page*16 {
		w.metaBytes = page * 16
	}
	if logBytes < page*16 {
		logBytes = page * 16
	}
	// The 16-page floors above can exceed a tiny logical space entirely,
	// leaving dataBase past LogicalBytes and wrapping dataPages around
	// uint64. Only when the floors made the layout impossible — less than
	// one table page would remain — shrink both regions to an eighth of
	// the space; any feasible user-configured fraction split is honored
	// as-is.
	if w.metaBytes+logBytes > cfg.LogicalBytes-page {
		shrunk := alignDown(cfg.LogicalBytes/8, page)
		if shrunk < page {
			shrunk = page
		}
		w.metaBytes, logBytes = shrunk, shrunk
	}
	w.logBase = w.metaBytes
	w.dataBase = w.logBase + logBytes
	w.dataPages = (cfg.LogicalBytes - w.dataBase) / page
	w.dataPop = newZipf(rng, cfg.ZipfS, w.dataPages)
	w.metaPop = newZipf(rng, websqlMetaSkew, w.metaBytes/page)
	return w
}

// Name implements Generator.
func (w *WebSQL) Name() string { return "websql" }

// LogicalBytes implements Generator.
func (w *WebSQL) LogicalBytes() uint64 { return w.cfg.LogicalBytes }

// Next implements Generator.
func (w *WebSQL) Next() (trace.Request, bool) {
	if w.emitted >= w.cfg.Requests {
		return trace.Request{}, false
	}
	w.emitted++
	if w.rng.Float64() < w.cfg.ReadFraction {
		return w.nextRead(), true
	}
	return w.nextWrite(), true
}

func (w *WebSQL) nextRead() trace.Request {
	page := uint64(w.cfg.DBPageBytes)
	roll := w.rng.Float64()
	switch {
	case roll < 0.25:
		// Hot index/catalog read (iron-hot candidates: read and written
		// frequently).
		return trace.Request{Op: trace.OpRead, Offset: w.metaPop.draw() * page, Size: uint32(page / 2), Hot: true}
	case roll < 0.99 && w.scanChunks == 0:
		// Zipf-skewed table page read.
		return trace.Request{Op: trace.OpRead, Offset: w.dataBase + w.dataPop.draw()*page, Size: uint32(page)}
	default:
		// Occasional short sequential scan session: 64 KiB chunks. Scans
		// are deliberately rare — they read uniformly and would dilute
		// the re-access skew that characterizes web/SQL traces.
		const chunk = 64 << 10
		if w.cfg.LogicalBytes-w.dataBase <= chunk {
			// Table region too small to host a scan (tiny logical space):
			// fall back to a skewed page read rather than wrapping offsets.
			return trace.Request{Op: trace.OpRead, Offset: w.dataBase + w.dataPop.draw()*page, Size: uint32(page)}
		}
		if w.scanChunks == 0 {
			w.scanChunks = 4 + w.rng.Intn(5)
			maxStart := w.cfg.LogicalBytes - w.dataBase - chunk
			w.scanPos = w.dataBase + alignDown(uint64(w.rng.Int63n(int64(maxStart))), page)
		}
		off := w.scanPos
		w.scanPos += chunk
		w.scanChunks--
		if w.scanPos+chunk > w.cfg.LogicalBytes {
			w.scanChunks = 0
		}
		return trace.Request{Op: trace.OpRead, Offset: off, Size: chunk}
	}
}

func (w *WebSQL) nextWrite() trace.Request {
	page := uint64(w.cfg.DBPageBytes)
	roll := w.rng.Float64()
	switch {
	case roll < 0.20:
		// Index/catalog update.
		return trace.Request{Op: trace.OpWrite, Offset: w.metaPop.draw() * page, Size: uint32(page / 2), Hot: true}
	case roll < 0.45:
		// Redo-log append: sequential small writes, wrapping. The log
		// region is rewritten on every wrap — a hot stream even though
		// individual offsets recur only per cycle.
		size := uint64(4 << 10)
		off := w.logBase + w.logPos
		w.logPos += size
		if w.logBase+w.logPos+size > w.dataBase {
			w.logPos = 0
		}
		return trace.Request{Op: trace.OpWrite, Offset: off, Size: uint32(size), Hot: true}
	default:
		// Skewed table page update.
		return trace.Request{Op: trace.OpWrite, Offset: w.dataBase + w.dataPop.draw()*page, Size: uint32(page)}
	}
}
