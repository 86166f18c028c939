// Package nand simulates a 3D charge-trap NAND flash device with the
// asymmetric per-layer page access speed characteristic described in
// Chen et al., DAC 2017.
//
// The device model is cost-accounting rather than event-driven: every
// operation (read, program, erase) returns the time it would take on the
// modeled hardware, and enforces the NAND state machine (erase-before-
// write, strictly in-order page programming within a block).
//
// Geometry follows the paper's FTL view of 3D charge-trap flash: a
// vertical channel maps to a block and the channel section at each gate
// stack layer maps to pages. Because the channel etch is wider at the top
// than at the bottom, pages early in a block (top layers) are slow and
// pages late in a block (bottom layers) are fast, up to Config.SpeedRatio
// times faster.
package nand

import (
	"fmt"
	"time"
)

// Config describes the geometry and timing of a simulated device.
// TableOneConfig returns the paper's Table 1 parameter set.
type Config struct {
	// PageSize is the page payload size in bytes.
	PageSize int
	// PagesPerBlock is the number of pages in each block.
	PagesPerBlock int
	// BlocksPerChip is the number of blocks on each chip.
	BlocksPerChip int
	// Chips is the number of flash chips; the FTL sees a flat block space
	// spanning all chips.
	Chips int
	// Planes is the number of planes per chip. Blocks interleave over the
	// planes of their chip (chip-local block index modulo Planes), and
	// operations on distinct planes of one chip may overlap within the
	// device's reordering window (see Device.SetReorderWindow).
	// Zero or one means the chip is a single serial execution unit, which
	// is bit-identical to the pre-plane model.
	Planes int
	// Layers is the number of gate stack layers in the 3D structure.
	// Pages map onto layers top-down: page 0 sits on the top (slow) layer
	// and the last page on the bottom (fast) layer. PagesPerBlock must be
	// a multiple of Layers.
	Layers int
	// SpeedRatio is how much faster the bottom layer is than the top
	// layer (the paper evaluates 2x through 5x). Must be >= 1.
	SpeedRatio float64
	// ReadLatency is the cell read (sense) time of the slowest page.
	ReadLatency time.Duration
	// ProgramLatency is the program time of the slowest page.
	ProgramLatency time.Duration
	// EraseLatency is the block erase time.
	EraseLatency time.Duration
	// TransferBytesPerSec is the channel transfer rate used to move one
	// page between controller and cell array, applied to both reads and
	// programs. TableOneConfig reads the paper's "533Mbps" as 533 MB/s;
	// the experiments set it to zero (harness Scale.DeviceConfig says
	// why).
	TransferBytesPerSec float64
}

// TableOneConfig returns the experimental parameters of the paper's
// Table 1: a 64 GB device with 16 KB pages, 384 pages per block, 600 µs
// program, 49 µs read, 4 ms erase and a 533 MB/s channel, with 48 gate
// stack layers and a 2x default speed ratio (footnote 1: current 64-layer
// parts are within 2x).
func TableOneConfig() Config {
	const (
		pageSize  = 16 * 1024
		perBlock  = 384
		totalSize = 64 << 30
	)
	blocks := totalSize / (pageSize * perBlock) // 10922 blocks
	return Config{
		PageSize:            pageSize,
		PagesPerBlock:       perBlock,
		BlocksPerChip:       blocks,
		Chips:               1,
		Layers:              48,
		SpeedRatio:          2.0,
		ReadLatency:         49 * time.Microsecond,
		ProgramLatency:      600 * time.Microsecond,
		EraseLatency:        4 * time.Millisecond,
		TransferBytesPerSec: 533e6,
	}
}

// Scaled returns a copy of the config with the block count divided by n
// (minimum 16 blocks), preserving all timing and page geometry. It is the
// knob the harness and benchmarks use to run the paper's experiments at
// laptop scale.
func (c Config) Scaled(n int) Config {
	if n < 1 {
		n = 1
	}
	c.BlocksPerChip /= n
	if c.BlocksPerChip < 16 {
		c.BlocksPerChip = 16
	}
	return c
}

// WithPageSize returns a copy of the config using the given page size while
// keeping total device capacity constant (block count is rescaled). Used
// for the paper's 8 KB vs 16 KB comparison.
//
// The block count is rounded to the nearest whole block rather than
// truncated: flooring silently shrank the device by up to one block per
// chip whenever the capacity did not divide evenly, so the paper's
// 8 KB-vs-16 KB comparison could run on a slightly smaller device than
// the 16 KB baseline.
//
// A non-positive page size has no block count to rescale to; the copy
// keeps the old geometry with the new PageSize, which Validate rejects.
func (c Config) WithPageSize(pageSize int) Config {
	if pageSize <= 0 {
		c.PageSize = pageSize
		return c
	}
	perChip := c.TotalBytes() / uint64(c.Chips)
	c.PageSize = pageSize
	blockBytes := uint64(pageSize * c.PagesPerBlock)
	c.BlocksPerChip = int((perChip + blockBytes/2) / blockBytes)
	if c.BlocksPerChip < 1 {
		c.BlocksPerChip = 1
	}
	return c
}

// WithChips returns a copy of the config spread over n chips while keeping
// total device capacity as close to constant as the geometry allows: the
// total block count is rounded to the nearest multiple of n and divided
// evenly, and n is capped at the block count (one block per chip) so a
// huge n can never inflate the device. Callers comparing makespans across
// chip counts should start from a block count divisible by every sweep
// point (see ChipSweep) so capacity is exactly equal; otherwise the
// rounding drift is at most n/2 blocks.
func (c Config) WithChips(n int) Config {
	if n < 1 {
		n = 1
	}
	total := c.TotalBlocks()
	if n > total {
		n = total
	}
	perChip := (total + n/2) / n
	if perChip < 1 {
		perChip = 1
	}
	c.Chips = n
	c.BlocksPerChip = perChip
	return c
}

// WithSpeedRatio returns a copy of the config with the given bottom/top
// speed ratio.
func (c Config) WithSpeedRatio(ratio float64) Config {
	c.SpeedRatio = ratio
	return c
}

// WithPlanes returns a copy of the config with n planes per chip.
func (c Config) WithPlanes(n int) Config {
	c.Planes = n
	return c
}

// PlaneCount returns the effective planes per chip: max(Planes, 1), so
// the zero value keeps the serial single-plane meaning.
func (c Config) PlaneCount() int {
	if c.Planes < 1 {
		return 1
	}
	return c.Planes
}

// TotalBlocks returns the number of blocks across all chips.
func (c Config) TotalBlocks() int { return c.BlocksPerChip * c.Chips }

// TotalPages returns the number of pages across all chips.
func (c Config) TotalPages() uint64 {
	return uint64(c.TotalBlocks()) * uint64(c.PagesPerBlock)
}

// TotalBytes returns the raw capacity in bytes.
func (c Config) TotalBytes() uint64 {
	return c.TotalPages() * uint64(c.PageSize)
}

// TransferTime returns the channel time to move one page.
func (c Config) TransferTime() time.Duration {
	if c.TransferBytesPerSec <= 0 {
		return 0
	}
	sec := float64(c.PageSize) / c.TransferBytesPerSec
	return time.Duration(sec * float64(time.Second))
}

// Validate reports a descriptive error for the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("nand: PageSize must be positive, got %d", c.PageSize)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock must be positive, got %d", c.PagesPerBlock)
	case c.BlocksPerChip <= 0:
		return fmt.Errorf("nand: BlocksPerChip must be positive, got %d", c.BlocksPerChip)
	case c.Chips <= 0:
		return fmt.Errorf("nand: Chips must be positive, got %d", c.Chips)
	case c.Planes < 0:
		return fmt.Errorf("nand: Planes must be non-negative, got %d", c.Planes)
	case c.Planes > c.BlocksPerChip:
		return fmt.Errorf("nand: Planes (%d) cannot exceed BlocksPerChip (%d)", c.Planes, c.BlocksPerChip)
	case c.Layers <= 0:
		return fmt.Errorf("nand: Layers must be positive, got %d", c.Layers)
	case c.Layers > c.PagesPerBlock:
		return fmt.Errorf("nand: Layers (%d) cannot exceed PagesPerBlock (%d)", c.Layers, c.PagesPerBlock)
	case c.PagesPerBlock%c.Layers != 0:
		return fmt.Errorf("nand: PagesPerBlock (%d) must be a multiple of Layers (%d)", c.PagesPerBlock, c.Layers)
	case c.SpeedRatio < 1:
		return fmt.Errorf("nand: SpeedRatio must be >= 1, got %g", c.SpeedRatio)
	case c.ReadLatency < 0 || c.ProgramLatency < 0 || c.EraseLatency < 0:
		return fmt.Errorf("nand: latencies must be non-negative")
	}
	return nil
}
