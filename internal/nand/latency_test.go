package nand

import (
	"testing"
	"time"
)

func TestSpeedFactorEndpoints(t *testing.T) {
	for _, ratio := range []float64{1, 2, 3, 4, 5} {
		cfg := testConfig().WithSpeedRatio(ratio)
		if got := cfg.SpeedFactor(0); got != 1 {
			t.Errorf("ratio %gx: first page speed = %g, want 1 (slowest, top layer)", ratio, got)
		}
		last := cfg.PagesPerBlock - 1
		if got := cfg.SpeedFactor(last); got != ratio {
			t.Errorf("ratio %gx: last page speed = %g, want %g (fastest, bottom layer)", ratio, got, ratio)
		}
	}
}

func TestSpeedFactorMonotonicNondecreasing(t *testing.T) {
	cfg := TableOneConfig().WithSpeedRatio(5)
	prev := 0.0
	for p := 0; p < cfg.PagesPerBlock; p++ {
		s := cfg.SpeedFactor(p)
		if s < prev {
			t.Fatalf("speed decreased at page %d: %g < %g", p, s, prev)
		}
		prev = s
	}
}

func TestLayerOfGroupsPages(t *testing.T) {
	cfg := testConfig() // 8 pages, 4 layers -> 2 pages per layer
	wants := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for p, want := range wants {
		if got := cfg.LayerOf(p); got != want {
			t.Errorf("LayerOf(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestPagesOnSameLayerShareLatency(t *testing.T) {
	cfg := TableOneConfig() // 384 pages, 48 layers -> 8 pages per layer
	perLayer := cfg.PagesPerBlock / cfg.Layers
	for p := 1; p < perLayer; p++ {
		if cfg.ReadLatencyOf(p) != cfg.ReadLatencyOf(0) {
			t.Fatalf("pages 0 and %d share layer 0 but differ in latency", p)
		}
	}
	if cfg.ReadLatencyOf(perLayer) == cfg.ReadLatencyOf(0) {
		t.Fatal("first pages of layer 0 and layer 1 should differ in latency")
	}
}

func TestReadLatencyEndpointsMatchRatio(t *testing.T) {
	cfg := TableOneConfig().WithSpeedRatio(4)
	slow := cfg.ReadLatencyOf(0)
	fast := cfg.ReadLatencyOf(cfg.PagesPerBlock - 1)
	if slow != cfg.ReadLatency {
		t.Errorf("slowest page latency = %v, want datasheet %v", slow, cfg.ReadLatency)
	}
	wantFast := time.Duration(float64(cfg.ReadLatency) / 4)
	if fast != wantFast {
		t.Errorf("fastest page latency = %v, want %v", fast, wantFast)
	}
}

func TestProgramLatencyScalesLikeRead(t *testing.T) {
	cfg := testConfig().WithSpeedRatio(2)
	last := cfg.PagesPerBlock - 1
	if got, want := cfg.ProgramLatencyOf(last), cfg.ProgramLatency/2; got != want {
		t.Errorf("fast program = %v, want %v", got, want)
	}
	if got := cfg.ProgramLatencyOf(0); got != cfg.ProgramLatency {
		t.Errorf("slow program = %v, want %v", got, cfg.ProgramLatency)
	}
}

func TestUnitRatioMakesAllPagesEqual(t *testing.T) {
	cfg := testConfig().WithSpeedRatio(1)
	for p := 0; p < cfg.PagesPerBlock; p++ {
		if cfg.ReadLatencyOf(p) != cfg.ReadLatency {
			t.Fatalf("ratio 1x should be uniform; page %d = %v", p, cfg.ReadLatencyOf(p))
		}
	}
}

func TestReadCostIncludesTransfer(t *testing.T) {
	cfg := testConfig()
	p := cfg.PagesPerBlock - 1
	if got, want := cfg.ReadCost(p), cfg.ReadLatencyOf(p)+cfg.TransferTime(); got != want {
		t.Errorf("ReadCost = %v, want %v", got, want)
	}
	if got, want := cfg.ProgramCost(0), cfg.ProgramLatency+cfg.TransferTime(); got != want {
		t.Errorf("ProgramCost = %v, want %v", got, want)
	}
}

// meanReadCost is the expected read cost of a page chosen uniformly from
// pages [from, PagesPerBlock) of a block: from 0 it is what a
// speed-oblivious FTL pays in steady state, from half the paper's fast
// virtual block with a 2-way split.
func meanReadCost(c Config, from int) time.Duration {
	var sum time.Duration
	for p := from; p < c.PagesPerBlock; p++ {
		sum += c.ReadCost(p)
	}
	return sum / time.Duration(c.PagesPerBlock-from)
}

func TestMeanReadCostBetweenExtremes(t *testing.T) {
	cfg := TableOneConfig().WithSpeedRatio(3)
	mean := meanReadCost(cfg, 0)
	slow := cfg.ReadCost(0)
	fast := cfg.ReadCost(cfg.PagesPerBlock - 1)
	if !(mean < slow && mean > fast) {
		t.Errorf("mean %v not between fast %v and slow %v", mean, fast, slow)
	}
	fh := meanReadCost(cfg, cfg.PagesPerBlock/2)
	if !(fh < mean) {
		t.Errorf("fast-half mean %v should beat whole-block mean %v", fh, mean)
	}
}

func TestMeanReadCostDropsWithRatio(t *testing.T) {
	cfg := TableOneConfig()
	prev := time.Duration(1<<62 - 1)
	for _, r := range []float64{2, 3, 4, 5} {
		m := meanReadCost(cfg.WithSpeedRatio(r), 0)
		if m >= prev {
			t.Errorf("mean read cost should drop as ratio grows: %v at %gx >= %v", m, r, prev)
		}
		prev = m
	}
}

func TestSingleLayerDeviceIsUniform(t *testing.T) {
	cfg := testConfig()
	cfg.Layers = 1
	cfg.SpeedRatio = 5
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.PagesPerBlock; p++ {
		if cfg.SpeedFactor(p) != 1 {
			t.Fatalf("single layer should have uniform speed, page %d = %g", p, cfg.SpeedFactor(p))
		}
	}
}
