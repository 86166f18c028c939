package nand

import "fmt"

// PPN is a flat physical page number spanning all chips of a device:
// ppn = blockID*PagesPerBlock + page, where blockID already spans chips.
type PPN uint64

// BlockID is a flat physical block number spanning all chips:
// blockID = chip*BlocksPerChip + block.
type BlockID uint32

// Address identifies a page in chip/block/page coordinates.
type Address struct {
	Chip  int
	Block int // block index within the chip
	Page  int // page index within the block
}

// String renders the address as c/b/p.
func (a Address) String() string {
	return fmt.Sprintf("c%d/b%d/p%d", a.Chip, a.Block, a.Page)
}

// AddressOf converts a flat physical page number back to coordinates.
func (c Config) AddressOf(p PPN) Address {
	block := uint64(p) / uint64(c.PagesPerBlock)
	page := uint64(p) % uint64(c.PagesPerBlock)
	return Address{
		Chip:  int(block) / c.BlocksPerChip,
		Block: int(block) % c.BlocksPerChip,
		Page:  int(page),
	}
}

// PPNForBlockPage builds a flat PPN from a flat block id and page index.
// Pointer receiver: called once per simulated page operation (see the
// note in latency.go).
func (c *Config) PPNForBlockPage(b BlockID, page int) PPN {
	return PPN(uint64(b)*uint64(c.PagesPerBlock) + uint64(page))
}

// SplitPPN returns the flat block id and page index of a PPN. Pointer
// receiver: called once per simulated page operation.
func (c *Config) SplitPPN(p PPN) (BlockID, int) {
	return BlockID(uint64(p) / uint64(c.PagesPerBlock)), int(uint64(p) % uint64(c.PagesPerBlock))
}
