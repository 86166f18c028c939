//go:build !race

package workload_test

// zipfDraws is the number of random draws TestZipfMatchesStdlib compares
// per pair.
const zipfDraws = 10_000_000
