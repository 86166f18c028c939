package workload

import "math/rand"

// Hooks for the external tests in zipf_test.go, which import harness (an
// importer of this package) for its scale presets.

// ZipfGuard is the zipf sampler's guard δ.
const ZipfGuard = zipfGuard

// ZipfMinSkew is the smallest skew the zipf sampler accepts.
const ZipfMinSkew = zipfMinSkew

// ZipfDomain is one (skew, domain size) pair a generator draws over.
type ZipfDomain struct {
	Skew float64
	N    uint64
}

// ZipfDomains returns the pairs of a WebSQL or MediaServer generator.
func ZipfDomains(g Generator) []ZipfDomain {
	switch g := g.(type) {
	case *WebSQL:
		return []ZipfDomain{{websqlZipfS, g.dataPages}, {websqlMetaSkew, g.metaBytes / websqlDBPageBytes}}
	case *MediaServer:
		return []ZipfDomain{{mediaZipfS, uint64(g.fileCount)}, {mediaMetaSkew, g.metaSlot}}
	}
	return nil
}

// NewZipfSampler builds a zipf sampler and returns its draw and its
// region edges.
func NewZipfSampler(rng *rand.Rand, s float64, n uint64) (draw func() uint64, edges []float64) {
	z := newZipf(rng, s, n)
	return z.draw, z.edges
}
