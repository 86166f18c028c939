package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// cycleReader serves data over and over and never reaches EOF.
type cycleReader struct {
	data []byte
	off  int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

// BenchmarkMSRReader isolates the MSR parse: one MSRReader.Next per
// iteration over an in-memory CSV of 4096 MSR-shaped lines (18-digit
// filetime stamps, one hostname, two disks) that repeats endlessly. The
// steady state must be 0 allocs/op.
func BenchmarkMSRReader(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	ts := int64(128166372003061629)
	for range 4096 {
		ts += 1 + rng.Int63n(100000)
		op := "Read"
		if rng.Intn(4) == 0 {
			op = "Write"
		}
		fmt.Fprintf(&buf, "%d,hm,%d,%s,%d,%d,%d\n", ts, rng.Intn(2), op,
			rng.Int63n(1<<36)&^511, 512<<rng.Intn(10), rng.Intn(100000))
	}
	r := NewMSRReader(&cycleReader{data: buf.Bytes()})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
