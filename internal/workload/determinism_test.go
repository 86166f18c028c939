package workload

import (
	"sync"
	"testing"

	"ppbflash/internal/trace"
)

// TestGeneratorsDeterministicUnderConcurrency pins the rand audit behind
// cmd/flashvet's determinism analyzer: every generator draws from its own
// rand.New(rand.NewSource(cfg.Seed)) instance, never the process-wide
// source, so equal-seed generators produce identical streams even when
// many of them are constructed and drained concurrently. A regression to
// global math/rand (or any other shared mutable state) would interleave
// the goroutines' draws and diverge some replica from the serial
// reference stream.
func TestGeneratorsDeterministicUnderConcurrency(t *testing.T) {
	builders := map[string]func() Generator{
		"mediaserver": func() Generator {
			return NewMediaServer(MediaConfig{LogicalBytes: 64 << 20, Requests: 4000, Seed: 42})
		},
		"websql": func() Generator {
			return NewWebSQL(WebSQLConfig{LogicalBytes: 64 << 20, Requests: 4000, Seed: 42})
		},
		"uniform": func() Generator {
			return NewUniform(UniformConfig{LogicalBytes: 64 << 20, Requests: 4000, Seed: 42})
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			want := collect(build())
			const replicas = 8
			got := make([][]trace.Request, replicas)
			var wg sync.WaitGroup
			for i := 0; i < replicas; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = collect(build())
				}(i)
			}
			wg.Wait()
			for i, stream := range got {
				if len(stream) != len(want) {
					t.Fatalf("replica %d produced %d requests, serial reference %d", i, len(stream), len(want))
				}
				for j := range stream {
					if stream[j] != want[j] {
						t.Fatalf("replica %d diverges from serial reference at request %d: %+v vs %+v",
							i, j, stream[j], want[j])
					}
				}
			}
		})
	}
}
