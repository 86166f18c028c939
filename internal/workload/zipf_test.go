package workload_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/workload"
)

// websqlPattern makes two Float64 calls between draws, as websql's Next
// does before each table-page draw (see compareDraws).
const websqlPattern = 0xaaaaaaaaaaaaaaaa

// scaleBytes returns the logical space of a harness run at the scale on
// its device with the given page size.
func scaleBytes(s harness.Scale, page int) uint64 {
	return ftl.LogicalPagesFor(s.DeviceConfig(page, 2.0), 0) * uint64(page)
}

// zipfPairs lists every (skew, domain) pair the generators build at the
// three scale presets with 8 and 16 KiB pages, over the whole logical
// space and over a tenant region of TenantWorkloads(4), followed by the
// domains n = 1, 2 and 3 at each of those skews.
func zipfPairs() []workload.ZipfDomain {
	var pairs []workload.ZipfDomain
	seen := make(map[workload.ZipfDomain]bool)
	add := func(ds ...workload.ZipfDomain) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				pairs = append(pairs, d)
			}
		}
	}
	for _, s := range []harness.Scale{harness.QuickScale, harness.BenchScale, harness.PaperScale} {
		for _, page := range []int{8 << 10, 16 << 10} {
			bytes := scaleBytes(s, page)
			// TenantWorkloads(4) gives each tenant a quarter of the
			// space, 1 MiB aligned; tenant 0 runs websql, tenant 1
			// mediaserver.
			for _, b := range []uint64{bytes, (bytes / 4) &^ (1<<20 - 1)} {
				add(workload.ZipfDomains(workload.NewWebSQL(workload.WebSQLConfig{LogicalBytes: b}))...)
				add(workload.ZipfDomains(workload.NewMediaServer(workload.MediaConfig{LogicalBytes: b}))...)
			}
		}
	}
	for _, s := range []float64{1.2, 1.4, 1.15, 1.3} {
		for n := uint64(1); n <= 3; n++ {
			add(workload.ZipfDomain{Skew: s, N: n})
		}
	}
	return pairs
}

// TestZipfMatchesStdlib checks the sampler against rand.NewZipf for every
// pair the generators build: zipfDraws random draws (see compareDraws),
// then a probe of every edge of its table (see probeEdges).
func TestZipfMatchesStdlib(t *testing.T) {
	for _, d := range zipfPairs() {
		t.Run(fmt.Sprintf("s=%g/n=%d", d.Skew, d.N), func(t *testing.T) {
			t.Parallel()
			compareDraws(t, d, 1, zipfDraws, websqlPattern)
			probeEdges(t, d, 1)
		})
	}
}

// TestZipfFloorStaysInDomain draws 2M values (200k under -race) at the
// smallest accepted skew over domains from 1 to 2^26 values: every draw
// must fall inside the domain. Below the floor rand.Zipf, and so the
// sampler, draws past it.
func TestZipfFloorStaysInDomain(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 20, 1 << 26} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			draw, _ := workload.NewZipfSampler(rand.New(rand.NewSource(1)), workload.ZipfMinSkew, n)
			for i := range zipfDraws / 5 {
				if k := draw(); k >= n {
					t.Fatalf("draw %d is %d, past the domain of %d", i, k, n)
				}
			}
		})
	}
}

// FuzzZipf compares the sampler with rand.NewZipf at a skew in
// [1+1e-9, 64] and a domain size in [1, 2^26]: 1000 draws from the seed
// with the pattern's Float64 calls between them, then probes of every
// 64th edge. A finite skew outside that range is folded into it.
func FuzzZipf(f *testing.F) {
	f.Fuzz(func(t *testing.T, skew float64, n uint64, seed int64, pattern uint64) {
		if !(skew >= workload.ZipfMinSkew && skew <= 64) {
			skew = workload.ZipfMinSkew + math.Mod(math.Abs(skew), 64-workload.ZipfMinSkew)
			if math.IsNaN(skew) {
				t.Skip("skew is not finite")
			}
		}
		d := workload.ZipfDomain{Skew: skew, N: 1 + n%(1<<26)}
		compareDraws(t, d, seed, 1000, pattern)
		probeEdges(t, d, 64)
	})
}

// compareDraws draws from the sampler and from rand.NewZipf on two rngs
// seeded alike. After draw i both rngs make (pattern >> 2(i mod 32)) & 3
// Float64 calls. Every draw must return the same value, and the next
// Int63 at the end must be equal, so both consumed the same draws.
func compareDraws(t *testing.T, d workload.ZipfDomain, seed int64, draws int, pattern uint64) {
	t.Helper()
	a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	draw, _ := workload.NewZipfSampler(a, d.Skew, d.N)
	std := rand.NewZipf(b, d.Skew, 1, d.N-1)
	for i := range draws {
		if got, want := draw(), std.Uint64(); got != want {
			t.Fatalf("s=%g n=%d seed %d: draw %d is %d, stdlib's %d", d.Skew, d.N, seed, i, got, want)
		}
		for range pattern >> (2 * (i % 32)) & 3 {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("s=%g n=%d seed %d: rngs diverged after draw %d", d.Skew, d.N, seed, i)
			}
		}
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Fatalf("s=%g n=%d seed %d: next Int63 after %d draws is %d, stdlib's %d", d.Skew, d.N, seed, draws, x, y)
	}
}

// probeEdges makes one draw at each r on and around every step-th edge
// of the sampler's table: the edge itself, the edge moved by ±δ and ±2δ,
// and up to three ulps either side of each of those. Both samplers read
// the same r and then the same stream, and must return the same value
// and leave the same next Int63. A random r falls within δ of an edge
// about once in 1e7 draws, so only these probes show that the guard
// covers the stdlib's rounding and that each edge sits where the stdlib
// changes its decision.
func probeEdges(t *testing.T, d workload.ZipfDomain, step int) {
	t.Helper()
	sa, sb := new(scriptSource), new(scriptSource)
	draw, edges := workload.NewZipfSampler(rand.New(sa), d.Skew, d.N)
	std := rand.NewZipf(rand.New(sb), d.Skew, 1, d.N-1)
	// edges[0] is 1 and the last edge is the sentinel -1.
	for j := 1; j < len(edges)-1; j += step {
		for _, off := range []float64{0, workload.ZipfGuard, -workload.ZipfGuard, 2 * workload.ZipfGuard, -2 * workload.ZipfGuard} {
			r := edges[j] + off
			for range 3 {
				r = math.Nextafter(r, -1)
			}
			for range 7 {
				if r > 0 && r < 1 {
					sa.script(r, uint64(j))
					sb.script(r, uint64(j))
					got, want := draw(), std.Uint64()
					if x, y := sa.Int63(), sb.Int63(); got != want || x != y {
						t.Fatalf("s=%g n=%d: at r=%v (edge %d at %v) drew %d, stdlib %d; next Int63 %d, stdlib's %d",
							d.Skew, d.N, r, j, edges[j], got, want, x, y)
					}
				}
				r = math.Nextafter(r, 2)
			}
		}
	}
}

// scriptSource returns a scripted Int63 once and then a splitmix64
// stream, so a probe can hand both samplers the same r.
type scriptSource struct {
	next  int64
	armed bool
	state uint64
}

// script arms the Int63 whose Float64 is r and restarts the stream.
func (s *scriptSource) script(r float64, state uint64) {
	s.next, s.armed, s.state = int64(r*(1<<63)), true, state
}

func (s *scriptSource) Int63() int64 {
	if s.armed {
		s.armed = false
		return s.next
	}
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func (s *scriptSource) Seed(seed int64) { s.state = uint64(seed) }

// BenchmarkWebSQLNext is the bench-scale websql generator's cost per
// request. CI's alloc smoke requires 0 allocs/op, stdlib fallbacks
// included.
func BenchmarkWebSQLNext(b *testing.B) {
	benchNext(b, workload.NewWebSQL(workload.WebSQLConfig{
		LogicalBytes: scaleBytes(harness.BenchScale, 16<<10), Requests: b.N,
	}))
}

// BenchmarkMediaServerNext is the bench-scale mediaserver generator's
// cost per request.
func BenchmarkMediaServerNext(b *testing.B) {
	benchNext(b, workload.NewMediaServer(workload.MediaConfig{
		LogicalBytes: scaleBytes(harness.BenchScale, 16<<10), Requests: b.N,
	}))
}

func benchNext(b *testing.B, g workload.Generator) {
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, ok := g.Next(); !ok {
			b.Fatal("stream ended early")
		}
	}
}

// BenchmarkNewWebSQL is the cost of building the websql generator of a
// harness run at bench and paper scale, tables included.
func BenchmarkNewWebSQL(b *testing.B) {
	for _, sc := range []struct {
		name  string
		scale harness.Scale
	}{{"bench", harness.BenchScale}, {"paper", harness.PaperScale}} {
		b.Run(sc.name, func(b *testing.B) {
			build, bytes := sc.scale.WebSQLWorkload(), scaleBytes(sc.scale, 16<<10)
			b.ReportAllocs()
			for range b.N {
				build(bytes)
			}
		})
	}
}
