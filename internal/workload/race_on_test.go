//go:build race

package workload_test

// zipfDraws is the number of random draws TestZipfMatchesStdlib compares
// per pair. The race detector slows every draw and finds nothing to check
// in one goroutine's draws, so under it the test compares a tenth.
const zipfDraws = 1_000_000
