package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestOpString(t *testing.T) {
	if OpRead.String() != "Read" || OpWrite.String() != "Write" {
		t.Errorf("op strings = %q/%q", OpRead, OpWrite)
	}
}

func TestRequestPages(t *testing.T) {
	const ps = 4096
	tests := []struct {
		name        string
		req         Request
		first, last uint64
		count       int
	}{
		{"one byte", Request{Offset: 0, Size: 1}, 0, 0, 1},
		{"exact page", Request{Offset: 0, Size: ps}, 0, 0, 1},
		{"page plus one", Request{Offset: 0, Size: ps + 1}, 0, 1, 2},
		{"aligned middle", Request{Offset: 3 * ps, Size: 2 * ps}, 3, 4, 2},
		{"unaligned spanning", Request{Offset: ps - 1, Size: 2}, 0, 1, 2},
		{"unaligned inside", Request{Offset: ps + 10, Size: 100}, 1, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			first, last := tt.req.Pages(ps)
			if first != tt.first || last != tt.last {
				t.Errorf("Pages = %d..%d, want %d..%d", first, last, tt.first, tt.last)
			}
			if got := tt.req.PageCount(ps); got != tt.count {
				t.Errorf("PageCount = %d, want %d", got, tt.count)
			}
		})
	}
}

func TestRequestValidate(t *testing.T) {
	for _, r := range []Request{
		{Size: 0},
		{Op: OpRead, Offset: math.MaxUint64, Size: 4096},         // End() wraps past 2^64
		{Op: OpWrite, Offset: math.MaxUint64 - 4095, Size: 4096}, // ends at exactly 2^64
	} {
		if err := r.Validate(); err == nil {
			t.Errorf("%+v (End() = %d) should be invalid", r, r.End())
		}
	}
	for _, r := range []Request{
		{Size: 1},
		{Op: OpRead, Offset: math.MaxUint64 - 4096, Size: 4096}, // End() = 2^64-1
	} {
		if err := r.Validate(); err != nil {
			t.Errorf("%+v: unexpected error: %v", r, err)
		}
	}
}

func TestStats(t *testing.T) {
	reqs := []Request{
		{Op: OpRead, Offset: 0, Size: 64 * 1024},
		{Op: OpWrite, Offset: 100, Size: 4 * 1024},
		{Op: OpWrite, Offset: 1 << 20, Size: 64 * 1024},
	}
	s := Summarize(reqs)
	if s.Requests != 3 || s.Reads != 1 || s.Writes != 2 {
		t.Errorf("counts = %+v", s)
	}
	if s.ReadBytes != 64*1024 || s.WriteBytes != 68*1024 {
		t.Errorf("bytes = %d/%d", s.ReadBytes, s.WriteBytes)
	}
	if s.SmallWrites != 1 {
		t.Errorf("small writes = %d, want 1", s.SmallWrites)
	}
	if want := uint64(1<<20 + 64*1024); s.MaxEnd != want {
		t.Errorf("max end = %d, want %d", s.MaxEnd, want)
	}
	if got := s.ReadRatio(); got < 0.33 || got > 0.34 {
		t.Errorf("read ratio = %v", got)
	}
	if (Stats{}).ReadRatio() != 0 {
		t.Error("empty ratio should be 0")
	}
}

const msrSample = `128166372003061629,hm,0,Read,383496192,32768,413
128166372016382155,hm,0,Write,310378496,8192,108
# a comment line

128166372026382245,hm,1,Read,0,4096,99
128166372036382335,hm,0,Write,310378496,8192,212
`

func TestMSRReaderParsesSample(t *testing.T) {
	r := NewMSRReader(strings.NewReader(msrSample))
	var recs []MSRRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[0].Op != OpRead || recs[0].Offset != 383496192 || recs[0].Size != 32768 {
		t.Errorf("rec0 = %+v", recs[0].Request)
	}
	if recs[0].Hostname != "hm" || recs[0].DiskNumber != 0 {
		t.Errorf("rec0 metadata = %q disk %d", recs[0].Hostname, recs[0].DiskNumber)
	}
	// Timestamps rebased to trace start, in 100ns ticks.
	if recs[0].Request.Time != 0 {
		t.Errorf("first time = %v, want 0", recs[0].Request.Time)
	}
	wantDelta := time.Duration(128166372016382155-128166372003061629) * 100 * time.Nanosecond
	if recs[1].Request.Time != wantDelta {
		t.Errorf("second time = %v, want %v", recs[1].Request.Time, wantDelta)
	}
	if recs[0].ResponseTime != 413*100*time.Nanosecond {
		t.Errorf("response time = %v", recs[0].ResponseTime)
	}
}

func TestMSRReaderDiskFilter(t *testing.T) {
	r := NewMSRReader(strings.NewReader(msrSample)).FilterDisk(1)
	reqs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Size != 4096 {
		t.Fatalf("filtered = %+v", reqs)
	}
}

func TestMSRReaderErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":  "1,hm,0,Read,5,100\n",
		"bad op":          "1,hm,0,Sync,5,100,0\n",
		"bad timestamp":   "x,hm,0,Read,5,100,0\n",
		"bad disk":        "1,hm,x,Read,5,100,0\n",
		"bad offset":      "1,hm,0,Read,x,100,0\n",
		"bad size":        "1,hm,0,Read,5,x,0\n",
		"zero size":       "1,hm,0,Read,5,0,0\n",
		"bad response":    "1,hm,0,Read,5,100,x\n",
		"negative-ish 32": "1,hm,0,Read,5,99999999999,0\n",
		"end past 2^64":   "1,hm,0,Read,18446744073709551615,4096,0\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := NewMSRReader(strings.NewReader(in)).Next()
			if err == nil || err == io.EOF {
				t.Fatalf("want parse error, got %v", err)
			}
			if !strings.HasPrefix(err.Error(), "trace: line 1: ") || strings.Count(err.Error(), "trace:") != 1 {
				t.Errorf(`error should read "trace: line 1: ..." with no second "trace:": %v`, err)
			}
		})
	}
}

func TestMSRRoundTrip(t *testing.T) {
	reqs := []Request{
		{Time: 0, Op: OpWrite, Offset: 4096, Size: 8192},
		{Time: 2 * time.Millisecond, Op: OpRead, Offset: 0, Size: 512},
		{Time: 5 * time.Millisecond, Op: OpWrite, Offset: 1 << 30, Size: 128 * 1024},
	}
	var buf bytes.Buffer
	if err := WriteMSR(&buf, "synth", 0, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := NewMSRReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("round trip count %d != %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Errorf("req %d: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestMSRWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w := NewMSRWriter(&buf, "h", 0)
	if err := w.Write(Request{Size: 0}); err == nil {
		t.Fatal("zero-size write should fail")
	}
}

// Property: random request batches survive an MSR round trip intact.
func TestPropertyMSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		reqs := make([]Request, n)
		var ts time.Duration
		for i := range reqs {
			ts += time.Duration(rng.Intn(1000)) * filetimeTick
			reqs[i] = Request{
				Time:   ts,
				Op:     Op(rng.Intn(2)),
				Offset: uint64(rng.Int63n(1 << 40)),
				Size:   uint32(1 + rng.Intn(1<<20)),
			}
		}
		var buf bytes.Buffer
		if err := WriteMSR(&buf, "p", 3, reqs); err != nil {
			return false
		}
		got, err := NewMSRReader(&buf).ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		base := reqs[0].Time // the reader rebases times to trace start
		for i := range reqs {
			want := reqs[i]
			want.Time -= base
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMSRReaderClampsNonMonotonicTimestamps: MSR traces occasionally
// carry timestamps that jump backwards (clock adjustments, multiplexed
// volumes). Rebasing on the first record alone produced negative
// Request.Time values; the reader must clamp each arrival to the
// previous one so open-loop replay — which gates on arrivals — sees a
// monotone, non-negative sequence.
func TestMSRReaderClampsNonMonotonicTimestamps(t *testing.T) {
	in := "1000,hm,0,Read,0,4096,0\n" + // base
		"500,hm,0,Read,4096,4096,0\n" + // before base: would be -50µs
		"1500,hm,0,Read,8192,4096,0\n" + // +50µs
		"400,hm,0,Read,12288,4096,0\n" // backwards again
	reqs, err := NewMSRReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 0, 500 * filetimeTick, 500 * filetimeTick}
	if len(reqs) != len(want) {
		t.Fatalf("got %d records, want %d", len(reqs), len(want))
	}
	var prev time.Duration
	for i, r := range reqs {
		if r.Time != want[i] {
			t.Errorf("record %d time = %v, want %v", i, r.Time, want[i])
		}
		if r.Time < 0 {
			t.Errorf("record %d time %v negative", i, r.Time)
		}
		if r.Time < prev {
			t.Errorf("record %d time %v below previous %v", i, r.Time, prev)
		}
		prev = r.Time
	}
}

func TestSimpleFormat(t *testing.T) {
	in := `# fixture
W 0 4096
R 0 4096
write 8192 100
READ 8192 100
`
	reqs, err := ParseSimple(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if reqs[0].Op != OpWrite || reqs[1].Op != OpRead || reqs[2].Op != OpWrite || reqs[3].Op != OpRead {
		t.Errorf("ops = %v", reqs)
	}
	var buf bytes.Buffer
	if err := WriteSimple(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSimple(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if back[i] != reqs[i] {
			t.Errorf("round trip %d: %+v != %+v", i, back[i], reqs[i])
		}
	}
}

func TestSimpleFormatErrors(t *testing.T) {
	for name, in := range map[string]string{
		"fields":   "W 0\n",
		"op":       "X 0 10\n",
		"offset":   "W x 10\n",
		"size":     "W 0 x\n",
		"zerosize": "W 0 0\n",
		"wraps":    "W 18446744073709551615 4096\n",
	} {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSimple(strings.NewReader(in))
			if err == nil {
				t.Fatal("want error")
			}
			if !strings.HasPrefix(err.Error(), "trace: line 1: ") || strings.Count(err.Error(), "trace:") != 1 {
				t.Errorf(`error should read "trace: line 1: ..." with no second "trace:": %v`, err)
			}
		})
	}
}
