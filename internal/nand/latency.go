package nand

import "time"

// The asymmetric feature process size model.
//
// The vertical-channel etch leaves a wide opening at the top gate stack
// layer and a narrow one at the bottom. A narrower opening concentrates
// the electric field, so cells on lower layers are accessed faster
// (Lee et al., JJAP 2010, cited as [9] in the paper). The paper models
// this at FTL granularity: pages within a block have monotonically
// increasing access speed from the first page (top layer) to the last
// (bottom layer), with the bottom 2x–5x faster than the top.
//
// We use a speed ramp linear in the layer index:
//
//	speed(layer) = 1 + (SpeedRatio-1) * layer/(Layers-1)
//	latency(page) = BaseLatency / speed(layerOf(page))
//
// so page 0 costs exactly the datasheet (slowest) latency and the last
// page costs BaseLatency/SpeedRatio. The programming order of a block
// therefore goes slow half first, fast half last, which is what makes the
// paper's virtual block 2n (allocated first) the slow one.

// The per-page helpers below take pointer receivers: they run once per
// simulated page operation, and a value receiver would copy the whole
// Config on every call (plus once more for each nested helper) — the
// single largest CPU cost of the replay loop before the change. Pointer
// receivers still apply to any addressable Config value.

// LayerOf returns the gate stack layer holding the given page index.
// Consecutive runs of PagesPerBlock/Layers pages share one layer.
func (c *Config) LayerOf(page int) int {
	perLayer := c.PagesPerBlock / c.Layers
	return page / perLayer
}

// SpeedFactor returns the relative access speed of a page (1.0 for the
// slowest page at the top layer, SpeedRatio for the bottom layer).
func (c *Config) SpeedFactor(page int) float64 {
	if c.Layers <= 1 {
		return 1
	}
	layer := c.LayerOf(page)
	return 1 + (c.SpeedRatio-1)*float64(layer)/float64(c.Layers-1)
}

// ReadLatencyOf returns the cell read (sense) time of the given page,
// excluding transfer time.
func (c *Config) ReadLatencyOf(page int) time.Duration {
	return scaleLatency(c.ReadLatency, c.SpeedFactor(page))
}

// ProgramLatencyOf returns the cell program time of the given page,
// excluding transfer time.
func (c *Config) ProgramLatencyOf(page int) time.Duration {
	return scaleLatency(c.ProgramLatency, c.SpeedFactor(page))
}

// ReadCost returns the full cost of a page read: sense plus transfer.
func (c *Config) ReadCost(page int) time.Duration {
	return c.ReadLatencyOf(page) + c.TransferTime()
}

// ProgramCost returns the full cost of a page program: transfer plus
// program pulse.
func (c *Config) ProgramCost(page int) time.Duration {
	return c.ProgramLatencyOf(page) + c.TransferTime()
}

func scaleLatency(base time.Duration, speed float64) time.Duration {
	if speed <= 1 {
		return base
	}
	return time.Duration(float64(base) / speed)
}
