package nand

import (
	"strings"
	"testing"
	"time"
)

// testConfig returns a small but structurally faithful device config used
// throughout the package tests: 4 layers, 8 pages/block, 2x ratio.
func testConfig() Config {
	return Config{
		PageSize:            4096,
		PagesPerBlock:       8,
		BlocksPerChip:       16,
		Chips:               1,
		Layers:              4,
		SpeedRatio:          2.0,
		ReadLatency:         40 * time.Microsecond,
		ProgramLatency:      400 * time.Microsecond,
		EraseLatency:        4 * time.Millisecond,
		TransferBytesPerSec: 512e6,
	}
}

func TestTableOneConfigMatchesPaper(t *testing.T) {
	cfg := TableOneConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table 1 config invalid: %v", err)
	}
	if got, want := cfg.PageSize, 16*1024; got != want {
		t.Errorf("page size = %d, want %d", got, want)
	}
	if got, want := cfg.PagesPerBlock, 384; got != want {
		t.Errorf("pages/block = %d, want %d", got, want)
	}
	if got, want := cfg.ReadLatency, 49*time.Microsecond; got != want {
		t.Errorf("read latency = %v, want %v", got, want)
	}
	if got, want := cfg.ProgramLatency, 600*time.Microsecond; got != want {
		t.Errorf("program latency = %v, want %v", got, want)
	}
	if got, want := cfg.EraseLatency, 4*time.Millisecond; got != want {
		t.Errorf("erase latency = %v, want %v", got, want)
	}
	// 64 GB is not an integer number of 384-page blocks; the config rounds
	// down to whole blocks, so capacity is within one block of 64 GB.
	blockBytes := uint64(cfg.PageSize * cfg.PagesPerBlock)
	if got, want := cfg.TotalBytes(), uint64(64)<<30; got > want || want-got >= blockBytes {
		t.Errorf("capacity = %d, want within one block below %d", got, want)
	}
	if got, want := cfg.TotalBlocks(), 10922; got != want {
		t.Errorf("blocks = %d, want %d", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero page size", func(c *Config) { c.PageSize = 0 }, "PageSize"},
		{"negative pages per block", func(c *Config) { c.PagesPerBlock = -1 }, "PagesPerBlock"},
		{"zero blocks", func(c *Config) { c.BlocksPerChip = 0 }, "BlocksPerChip"},
		{"zero chips", func(c *Config) { c.Chips = 0 }, "Chips"},
		{"zero layers", func(c *Config) { c.Layers = 0 }, "Layers"},
		{"layers exceed pages", func(c *Config) { c.Layers = 100 }, "Layers"},
		{"pages not multiple of layers", func(c *Config) { c.Layers = 3 }, "multiple"},
		{"ratio below one", func(c *Config) { c.SpeedRatio = 0.5 }, "SpeedRatio"},
		{"negative latency", func(c *Config) { c.ReadLatency = -1 }, "latencies"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("test config should be valid: %v", err)
	}
}

func TestWithPageSizeKeepsCapacity(t *testing.T) {
	cfg := TableOneConfig()
	cfg8 := cfg.WithPageSize(8 * 1024)
	if cfg8.PageSize != 8*1024 {
		t.Fatalf("page size = %d", cfg8.PageSize)
	}
	if got, want := cfg8.TotalBytes(), cfg.TotalBytes(); got != want {
		t.Errorf("capacity changed: %d -> %d", want, got)
	}
	if cfg8.TotalPages() != 2*cfg.TotalPages() {
		t.Errorf("8K device should have twice the pages: %d vs %d", cfg8.TotalPages(), cfg.TotalPages())
	}
}

// TestWithPageSizeRejectsNonPositive: a zero or negative page size must
// not panic (zero used to divide by zero) and must fail Validate.
func TestWithPageSizeRejectsNonPositive(t *testing.T) {
	for _, size := range []int{0, -4096} {
		cfg := TableOneConfig().WithPageSize(size)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "PageSize must be positive") {
			t.Errorf("WithPageSize(%d).Validate() = %v, want the PageSize error", size, err)
		}
	}
}

func TestScaledFloorsAtSixteenBlocks(t *testing.T) {
	cfg := testConfig().Scaled(1000)
	if cfg.BlocksPerChip != 16 {
		t.Errorf("BlocksPerChip = %d, want floor of 16", cfg.BlocksPerChip)
	}
	if got := TableOneConfig().Scaled(8).TotalBlocks(); got != 10922/8 {
		t.Errorf("scaled(8) blocks = %d, want %d", got, 10922/8)
	}
}

func TestTransferTime(t *testing.T) {
	cfg := TableOneConfig()
	got := cfg.TransferTime()
	sec := float64(16*1024) / 533e6
	want := time.Duration(sec * float64(time.Second))
	if got != want {
		t.Errorf("transfer time = %v, want %v", got, want)
	}
	cfg.TransferBytesPerSec = 0
	if cfg.TransferTime() != 0 {
		t.Errorf("zero rate should disable transfer cost")
	}
}

func TestAddressRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 3
	for chip := 0; chip < cfg.Chips; chip++ {
		for block := 0; block < cfg.BlocksPerChip; block += 5 {
			for page := 0; page < cfg.PagesPerBlock; page++ {
				a := Address{Chip: chip, Block: block, Page: page}
				flat := BlockID(chip*cfg.BlocksPerChip + block)
				p := cfg.PPNForBlockPage(flat, page)
				if back := cfg.AddressOf(p); back != a {
					t.Fatalf("round trip %v -> %d -> %v", a, p, back)
				}
				b, pg := cfg.SplitPPN(p)
				if b != flat || pg != page {
					t.Fatalf("SplitPPN(%d) = %d,%d want %d,%d", p, b, pg, flat, page)
				}
				if cfg.PPNForBlockPage(b, pg) != p {
					t.Fatalf("PPNForBlockPage mismatch at %v", a)
				}
			}
		}
	}
}

// TestBlockAddress: a flat block id past the first chip maps to its
// chip-local coordinates.
func TestBlockAddress(t *testing.T) {
	cfg := testConfig()
	cfg.Chips = 2
	a := cfg.AddressOf(cfg.PPNForBlockPage(BlockID(cfg.BlocksPerChip+3), 0))
	if a.Chip != 1 || a.Block != 3 {
		t.Errorf("block %d = chip %d block %d, want 1,3", cfg.BlocksPerChip+3, a.Chip, a.Block)
	}
}

func TestAddressString(t *testing.T) {
	a := Address{Chip: 1, Block: 2, Page: 3}
	if got, want := a.String(), "c1/b2/p3"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
