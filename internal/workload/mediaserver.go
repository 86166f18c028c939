package workload

import (
	"fmt"
	"math/rand"

	"ppbflash/internal/trace"
)

// MediaConfig parameterizes the synthetic media-server workload.
// Zero-valued fields take the defaults documented per field.
type MediaConfig struct {
	// LogicalBytes is the logical disk size (default 1 GiB).
	LogicalBytes uint64
	// Requests is the stream length (default 200k).
	Requests int
	// Seed makes the stream deterministic; 0 is a seed like any other.
	Seed int64
}

func (c MediaConfig) withDefaults() MediaConfig {
	if c.LogicalBytes == 0 {
		c.LogicalBytes = 1 << 30
	}
	if c.Requests == 0 {
		c.Requests = 200_000
	}
	return c
}

// The fixed shape of the media-server workload. The file count is
// derived from the space: one file per 16 MiB, at least 16.
const (
	mediaReadFraction = 0.85      // share of reads: media servers are read-dominated
	mediaZipfS        = 1.15      // file-popularity skew
	mediaChunkBytes   = 256 << 10 // streaming read/ingest request size
	mediaMetaFraction = 0.01      // share of the disk holding the hot metadata region
	mediaMetaSkew     = 1.3       // access skew over the metadata region's 4 KiB chunks
)

// MediaServer generates the media-server stand-in trace: Zipf-popular
// write-once-read-many files streamed sequentially, bulk ingest rewrites
// of unpopular files, and a small frequently read/updated metadata region.
type MediaServer struct {
	cfg MediaConfig
	rng *rand.Rand

	emitted int

	metaBytes uint64 // [0, metaBytes) is the metadata region
	fileBase  uint64 // file region start
	fileCount int    // media files sharing the file region
	fileSize  uint64 // bytes per file extent (chunk aligned)
	chunk     uint64 // streaming read/ingest request size

	filePop  zipf // popularity over file indices
	metaPop  zipf // popularity over metadata 4K chunks
	metaSlot uint64

	// streaming-read session
	readFile   int
	readPos    uint64
	readChunks int

	// ingest-write session
	ingestFile   int
	ingestPos    uint64
	ingestActive bool
}

// NewMediaServer builds the generator. It panics (like the zipf helpers)
// when the logical space cannot hold a metadata page plus one 4 KiB chunk
// per file: a silent wrap would corrupt offsets.
func NewMediaServer(cfg MediaConfig) *MediaServer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MediaServer{cfg: cfg, rng: rng, chunk: mediaChunkBytes,
		fileCount: max(int(cfg.LogicalBytes/(16<<20)), 16)}
	if cfg.LogicalBytes < 2*uint64(m.fileCount)*4096 {
		panic(fmt.Sprintf("workload: mediaserver logical space %d below %d files x 4K plus metadata",
			cfg.LogicalBytes, m.fileCount))
	}
	minFiles := uint64(m.fileCount) * 4096
	m.metaBytes = alignDown(uint64(float64(cfg.LogicalBytes)*mediaMetaFraction), 4096)
	if m.metaBytes < 1<<20 {
		m.metaBytes = 1 << 20
	}
	// The 1 MiB floor can swallow a tiny logical space whole, making the
	// file-region subtraction below wrap around uint64. Only when the
	// floor left the file region without one 4 KiB chunk per file, shrink
	// the metadata region to whatever leaves exactly that minimum.
	if m.metaBytes > cfg.LogicalBytes-minFiles {
		m.metaBytes = alignDown(cfg.LogicalBytes-minFiles, 4096)
		if m.metaBytes < 4096 {
			m.metaBytes = 4096
		}
	}
	m.fileBase = m.metaBytes
	fileRegion := cfg.LogicalBytes - m.fileBase
	m.fileSize = alignDown(fileRegion/uint64(m.fileCount), m.chunk)
	if m.fileSize == 0 {
		// Files smaller than the streaming chunk (tiny logical space):
		// shrink the chunk to the 4 KiB-aligned per-file share instead of
		// letting fileSize overrun the region by rounding up.
		m.fileSize = alignDown(fileRegion/uint64(m.fileCount), 4096)
		if m.fileSize < 4096 {
			m.fileSize = 4096
		}
		m.chunk = m.fileSize
	}
	m.filePop = newZipf(rng, mediaZipfS, uint64(m.fileCount))
	m.metaSlot = m.metaBytes / 4096
	m.metaPop = newZipf(rng, mediaMetaSkew, m.metaSlot)
	return m
}

// Name implements Generator.
func (m *MediaServer) Name() string { return "mediaserver" }

// LogicalBytes implements Generator.
func (m *MediaServer) LogicalBytes() uint64 { return m.cfg.LogicalBytes }

// Next implements Generator.
func (m *MediaServer) Next() (trace.Request, bool) {
	if m.emitted >= m.cfg.Requests {
		return trace.Request{}, false
	}
	m.emitted++
	if m.rng.Float64() < mediaReadFraction {
		return m.nextRead(), true
	}
	return m.nextWrite(), true
}

func (m *MediaServer) nextRead() trace.Request {
	// 12% of reads hit file-system metadata (frequently read AND written:
	// the paper's iron-hot example).
	if m.rng.Float64() < 0.12 {
		return trace.Request{Op: trace.OpRead, Offset: m.metaOffset(), Size: 4096, Hot: true}
	}
	if m.readChunks == 0 {
		// Start a new streaming session on a Zipf-popular file; most
		// sessions start at the head (users watch from the beginning).
		m.readFile = int(m.filePop.draw())
		m.readPos = 0
		if m.rng.Float64() < 0.3 { // seek-resume sessions
			chunks := m.fileSize / m.chunk
			m.readPos = uint64(m.rng.Int63n(int64(chunks))) * m.chunk
		}
		m.readChunks = 4 + m.rng.Intn(61) // 4..64 chunks per session
	}
	off := m.fileBase + uint64(m.readFile)*m.fileSize + m.readPos
	size := m.chunk
	if m.readPos+size >= m.fileSize {
		size = m.fileSize - m.readPos
		m.readChunks = 1 // end of file terminates the session
	}
	m.readPos += size
	m.readChunks--
	return trace.Request{Op: trace.OpRead, Offset: off, Size: uint32(size)}
}

func (m *MediaServer) nextWrite() trace.Request {
	// 30% of writes are small metadata updates (hot-area traffic:
	// file-system metadata accompanies ingest and is updated throughout).
	if m.rng.Float64() < 0.3 {
		return trace.Request{Op: trace.OpWrite, Offset: m.metaOffset(), Size: 4096, Hot: true}
	}
	// The rest is bulk ingest, replacing a file sequentially.
	if !m.ingestActive {
		var victim int
		if m.rng.Float64() < 0.2 {
			// Content refresh: a popular file is replaced by a new
			// version (new episode, re-encode) — popular data churns
			// slowly rather than living forever.
			victim = int(m.filePop.draw())
		} else {
			// Eviction: bias to the unpopular tail by mirroring a Zipf
			// rank so high-popularity files are rarely evicted.
			victim = m.fileCount - 1 - int(m.filePop.draw())
			if victim < 0 {
				victim = m.fileCount - 1
			}
		}
		m.ingestFile = victim
		m.ingestPos = 0
		m.ingestActive = true
	}
	off := m.fileBase + uint64(m.ingestFile)*m.fileSize + m.ingestPos
	size := m.chunk
	if m.ingestPos+size >= m.fileSize {
		size = m.fileSize - m.ingestPos
		m.ingestActive = false
	}
	m.ingestPos += size
	return trace.Request{Op: trace.OpWrite, Offset: off, Size: uint32(size)}
}

func (m *MediaServer) metaOffset() uint64 {
	return m.metaPop.draw() * 4096
}
