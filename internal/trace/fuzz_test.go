package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// FuzzMSRReader hammers the MSR CSV reader with arbitrary byte streams.
// The contract under fuzzing: Next never panics, and every successfully
// parsed record carries a non-negative, non-decreasing Request.Time and
// passes Request.Validate — the open-loop replay gates on exactly these
// properties (see Request.Time). Malformed input must surface as an
// error, never as a corrupt record. Every record and every error text
// must also equal those of refMSRReader, the string-based parser the
// zero-allocation one replaced; the committed corpus holds its corner
// cases (Unicode case and space rules, signs, overflow, field counts).
func FuzzMSRReader(f *testing.F) {
	// A well-formed two-record trace.
	f.Add("128166372003061629,hm,1,Read,2216341504,4096,419\n" +
		"128166372016382155,hm,1,Write,2982871040,8192,2011\n")
	// Non-monotonic timestamps (clock adjustment mid-trace).
	f.Add("2000,host,0,Read,0,512,10\n1000,host,0,Write,512,512,10\n")
	// Pre-base timestamp: second record is before the first (rebasing
	// would hand out a negative Time without the clamp).
	f.Add("9000000,host,0,Write,0,4096,1\n100,host,0,Read,0,4096,1\n")
	// Negative source timestamp.
	f.Add("-5000,host,0,Read,0,4096,1\n0,host,0,Read,4096,4096,1\n")
	// Timestamp overflow bait: near-MaxInt64 filetime ticks.
	f.Add("9223372036854775807,host,0,Read,0,4096,1\n1,host,0,Read,0,4096,1\n")
	// Wrong field count, unknown op, zero size, unparsable numbers.
	f.Add("1,host,0,Read,0,4096\n")
	f.Add("1,host,0,Flush,0,4096,1\n")
	f.Add("1,host,0,Write,0,0,1\n")
	f.Add("x,host,y,Read,z,4096,1\n")
	// Comments, blank lines, whitespace-padded fields.
	f.Add("# comment\n\n  42 , host , 3 , write , 512 , 1024 , 7 \n")
	// A huge field (longer than any sane number).
	f.Add("1,host,0,Read," + strings.Repeat("9", 400) + ",4096,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		r := NewMSRReader(bytes.NewReader([]byte(data)))
		ref := newRefMSRReader(strings.NewReader(data))
		var last time.Duration
		for {
			rec, err := r.Next()
			want, wantErr := ref.Next()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, reference %v (from %q)", err, wantErr, data)
			}
			if rec != want {
				t.Fatalf("record %+v, reference %+v (from %q)", rec, want, data)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				// Malformed lines and oversized tokens are errors by
				// contract; the stream is done either way.
				break
			}
			if rec.Request.Time < 0 {
				t.Fatalf("negative Request.Time %v from %q", rec.Request.Time, data)
			}
			if rec.Request.Time < last {
				t.Fatalf("non-monotone Request.Time %v after %v from %q", rec.Request.Time, last, data)
			}
			last = rec.Request.Time
			if err := rec.Request.Validate(); err != nil {
				t.Fatalf("parsed record fails validation: %v (from %q)", err, data)
			}
		}
	})
}

// TestMSRReaderFiltersAndClampsUnderFilter covers the corner the fuzz
// target cannot assert precisely: with a disk filter active, the
// timestamp rebase must key off the first *returned* record, and the
// monotonic clamp must apply across filtered gaps.
func TestMSRReaderFiltersAndClampsUnderFilter(t *testing.T) {
	in := "500,h,9,Read,0,4096,1\n" + // filtered out
		"1000,h,1,Read,0,4096,1\n" + // base
		"3000,h,1,Read,0,4096,1\n" +
		"2000,h,1,Read,0,4096,1\n" // backwards: clamps to previous
	r := NewMSRReader(strings.NewReader(in)).FilterDisk(1)
	var times []time.Duration
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, rec.Request.Time)
	}
	want := []time.Duration{0, 2000 * filetimeTick, 2000 * filetimeTick}
	if len(times) != len(want) {
		t.Fatalf("returned %d records, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("record %d Time = %v, want %v", i, times[i], want[i])
		}
	}
}
