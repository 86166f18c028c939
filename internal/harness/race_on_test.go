//go:build race

package harness

// raceEnabled reports whether the race detector is compiled in. The
// full-registry sweeps (golden fixtures, the determinism double run)
// skip under -race: they re-run hundreds of simulations 5-20x slowed by
// instrumentation while adding no
// concurrency coverage beyond what the dedicated RunAll race tests
// already exercise.
const raceEnabled = true
