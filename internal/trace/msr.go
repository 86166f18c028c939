package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The MSR Cambridge trace format is CSV with one request per line:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp and ResponseTime are in Windows filetime units (100 ns ticks);
// Type is "Read" or "Write"; Offset and Size are bytes.

const filetimeTick = 100 * time.Nanosecond

// MSRRecord is a fully parsed MSR trace line, including the fields the
// simulator itself does not consume.
type MSRRecord struct {
	Request
	Hostname     string
	DiskNumber   int
	ResponseTime time.Duration
}

// MSRReader streams requests from an MSR Cambridge CSV trace. Lines with
// the wrong field count or unparsable numbers are reported as errors with
// their line number.
type MSRReader struct {
	s     *bufio.Scanner
	line  int
	base  int64         // first timestamp, to rebase Time to trace start
	last  time.Duration // previous rebased arrival, to clamp non-monotonic stamps
	begun bool
	disk  int    // only this disk number is returned when filter is set
	filt  bool   // whether disk filtering is enabled
	host  string // previous record's hostname, reused while it repeats
}

// NewMSRReader wraps r for streaming reads of MSR CSV records.
func NewMSRReader(r io.Reader) *MSRReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), 1024*1024)
	return &MSRReader{s: s}
}

// FilterDisk restricts Next to records of one disk number (MSR traces
// multiplex several volumes per host).
func (m *MSRReader) FilterDisk(disk int) *MSRReader {
	m.disk = disk
	m.filt = true
	return m
}

// Next returns the next record, or io.EOF at end of trace. A record
// that fails Request.Validate is reported like a parse error.
//
//flashvet:hotpath
func (m *MSRReader) Next() (MSRRecord, error) {
	for m.s.Scan() {
		m.line++
		line := bytes.TrimSpace(m.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, err := m.parseLine(line)
		if err == nil {
			err = rec.Request.Validate()
		}
		if err != nil {
			return MSRRecord{}, fmt.Errorf("trace: line %d: %w", m.line, err)
		}
		if m.filt && rec.DiskNumber != m.disk {
			continue
		}
		ts := rec.Request.Time
		if !m.begun {
			m.begun = true
			m.base = int64(ts)
		}
		// Rebase to trace start and clamp to the previous arrival: MSR
		// traces occasionally carry non-monotonic timestamps (clock
		// adjustments, multiplexed volumes), and rebasing on the first
		// record alone would then hand out negative or backwards Times —
		// which open-loop replay gates on.
		t := time.Duration(int64(ts) - m.base)
		if t < m.last {
			t = m.last
		}
		m.last = t
		rec.Request.Time = t
		return rec, nil
	}
	if err := m.s.Err(); err != nil {
		return MSRRecord{}, err
	}
	return MSRRecord{}, io.EOF
}

// Stream adapts the reader into a pull-based Stream for replay: each
// Next yields one record's Request, a parse or I/O error ends the stream
// and is reported by the returned stream's Err (io.EOF reads as a clean
// end). This is the replay-path entry point; ReadAll remains for callers
// that genuinely want the trace in memory (tracegen, tests).
func (m *MSRReader) Stream() *ErrStream {
	return NewErrStream(func() (Request, error) {
		rec, err := m.Next()
		return rec.Request, err
	})
}

// ReadAll consumes the stream into a request slice.
func (m *MSRReader) ReadAll() ([]Request, error) {
	var out []Request
	for {
		rec, err := m.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec.Request)
	}
}

// parseLine parses one trimmed, non-comment line without allocating:
// the fields stay slices of the scanner's buffer, strconv parses each
// number from a string conversion that does not escape (so a field of
// up to 32 bytes is copied on the stack), and the hostname string is
// reused while it repeats. Records and error texts are those of
// splitting the line with strings.Split and parsing each trimmed field
// with strconv.
func (m *MSRReader) parseLine(line []byte) (MSRRecord, error) {
	var f [7][]byte
	rest := line
	for i := range 6 {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return MSRRecord{}, fmt.Errorf("expected 7 fields, got %d", i+1)
		}
		f[i], rest = bytes.TrimSpace(rest[:j]), rest[j+1:]
	}
	if bytes.IndexByte(rest, ',') >= 0 {
		return MSRRecord{}, fmt.Errorf("expected 7 fields, got %d", bytes.Count(line, []byte(","))+1)
	}
	f[6] = bytes.TrimSpace(rest)
	ts, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	disk, err := strconv.Atoi(string(f[2]))
	if err != nil {
		return MSRRecord{}, fmt.Errorf("disk number: %w", err)
	}
	op, ok := parseOp(f[3])
	if !ok {
		return MSRRecord{}, fmt.Errorf("unknown op %q", msrField(line, 3))
	}
	off, err := strconv.ParseUint(string(f[4]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("offset: %w", err)
	}
	size, err := strconv.ParseUint(string(f[5]), 10, 32)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("size: %w", err)
	}
	resp, err := strconv.ParseInt(string(f[6]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("response time: %w", err)
	}
	if string(f[1]) != m.host {
		m.host = string(f[1])
	}
	return MSRRecord{
		Request: Request{
			Time:   time.Duration(ts) * filetimeTick,
			Op:     op,
			Offset: off,
			Size:   uint32(size),
		},
		Hostname:     m.host,
		DiskNumber:   disk,
		ResponseTime: time.Duration(resp) * filetimeTick,
	}, nil
}

// msrField returns field i of a line, untrimmed, for error texts.
func msrField(line []byte, i int) string {
	return string(bytes.SplitN(line, []byte(","), i+2)[i])
}

// parseOp matches the Type field the way strings.ToLower(field) ==
// "read" or "write" does. ASCII fields compare byte by byte, ignoring
// case; any other field goes through strings.ToLower itself, since
// Unicode lowering maps some non-ASCII letters to ASCII ones (U+0130
// lowers to 'i', so "wrİte" is a write).
func parseOp(b []byte) (Op, bool) {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			switch strings.ToLower(string(b)) {
			case "read":
				return OpRead, true
			case "write":
				return OpWrite, true
			}
			return 0, false
		}
	}
	switch {
	case equalFoldASCII(b, "read"):
		return OpRead, true
	case equalFoldASCII(b, "write"):
		return OpWrite, true
	}
	return 0, false
}

// equalFoldASCII reports whether the ASCII bytes b spell the lower-case
// word in any case. For a lower-case letter w, c|0x20 == w holds only
// when c is w or its upper-case form.
func equalFoldASCII(b []byte, word string) bool {
	if len(b) != len(word) {
		return false
	}
	for i, c := range b {
		if c|0x20 != word[i] {
			return false
		}
	}
	return true
}

// MSRWriter serializes requests in MSR Cambridge CSV format.
type MSRWriter struct {
	w        *bufio.Writer
	hostname string
	disk     int
}

// NewMSRWriter creates a writer labeling records with the given hostname
// and disk number.
func NewMSRWriter(w io.Writer, hostname string, disk int) *MSRWriter {
	return &MSRWriter{w: bufio.NewWriter(w), hostname: hostname, disk: disk}
}

// Write emits one request as an MSR CSV line.
func (w *MSRWriter) Write(r Request) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	_, err := fmt.Fprintf(w.w, "%d,%s,%d,%s,%d,%d,%d\n",
		int64(r.Time/filetimeTick), w.hostname, w.disk, r.Op, r.Offset, r.Size, 0)
	return err
}

// Flush flushes buffered output.
func (w *MSRWriter) Flush() error { return w.w.Flush() }

// WriteMSR writes all requests and flushes.
func WriteMSR(w io.Writer, hostname string, disk int, reqs []Request) error {
	mw := NewMSRWriter(w, hostname, disk)
	for _, r := range reqs {
		if err := mw.Write(r); err != nil {
			return err
		}
	}
	return mw.Flush()
}
