package workload

import (
	"math/rand"

	"ppbflash/internal/trace"
)

// UniformConfig parameterizes the structureless control workload used by
// tests and ablations: uniformly random offsets, fixed request size.
type UniformConfig struct {
	LogicalBytes uint64  // default 64 MiB
	Requests     int     // default 10k
	Seed         int64   // stream seed; 0 is a seed like any other
	ReadFraction float64 // default 0.5
	Size         uint32  // request size, default 4 KiB
}

func (c UniformConfig) withDefaults() UniformConfig {
	if c.LogicalBytes == 0 {
		c.LogicalBytes = 64 << 20
	}
	if c.Requests == 0 {
		c.Requests = 10_000
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.Size == 0 {
		c.Size = 4 << 10
	}
	return c
}

// Uniform is a memoryless uniform-random workload. With no skew and no
// sequentiality there is nothing for hot/cold identification to exploit,
// making it the natural control for PPB experiments.
type Uniform struct {
	cfg     UniformConfig
	rng     *rand.Rand
	emitted int
	slots   uint64
}

// NewUniform builds the generator.
func NewUniform(cfg UniformConfig) *Uniform {
	cfg = cfg.withDefaults()
	return &Uniform{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		slots: cfg.LogicalBytes / uint64(cfg.Size),
	}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// LogicalBytes implements Generator.
func (u *Uniform) LogicalBytes() uint64 { return u.cfg.LogicalBytes }

// Next implements Generator.
func (u *Uniform) Next() (trace.Request, bool) {
	if u.emitted >= u.cfg.Requests {
		return trace.Request{}, false
	}
	u.emitted++
	op := trace.OpWrite
	if u.rng.Float64() < u.cfg.ReadFraction {
		op = trace.OpRead
	}
	off := uint64(u.rng.Int63n(int64(u.slots))) * uint64(u.cfg.Size)
	return trace.Request{Op: op, Offset: off, Size: u.cfg.Size}, true
}
