package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// refMSRReader is the string-based MSR reader the zero-allocation
// parser replaced, kept as the oracle FuzzMSRReader compares against:
// every record and every error text must match. It has no disk filter.
type refMSRReader struct {
	s     *bufio.Scanner
	line  int
	base  int64
	last  time.Duration
	begun bool
}

func newRefMSRReader(r io.Reader) *refMSRReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), 1024*1024)
	return &refMSRReader{s: s}
}

func (m *refMSRReader) Next() (MSRRecord, error) {
	for m.s.Scan() {
		m.line++
		line := strings.TrimSpace(m.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := refParseMSRLine(line)
		if err != nil {
			return MSRRecord{}, fmt.Errorf("trace: line %d: %w", m.line, err)
		}
		ts := rec.Request.Time
		if !m.begun {
			m.begun = true
			m.base = int64(ts)
		}
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

// refParseMSRLine is the strings.Split/strconv line parser, plus the
// Request.Validate check that rejects an offset plus size past 2^64.
func refParseMSRLine(line string) (MSRRecord, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 7 {
		return MSRRecord{}, fmt.Errorf("expected 7 fields, got %d", len(fields))
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("timestamp: %w", err)
	}
	disk, err := strconv.Atoi(strings.TrimSpace(fields[2]))
	if err != nil {
		return MSRRecord{}, fmt.Errorf("disk number: %w", err)
	}
	var op Op
	switch strings.ToLower(strings.TrimSpace(fields[3])) {
	case "read":
		op = OpRead
	case "write":
		op = OpWrite
	default:
		return MSRRecord{}, fmt.Errorf("unknown op %q", fields[3])
	}
	off, err := strconv.ParseUint(strings.TrimSpace(fields[4]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("offset: %w", err)
	}
	size, err := strconv.ParseUint(strings.TrimSpace(fields[5]), 10, 32)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("size: %w", err)
	}
	resp, err := strconv.ParseInt(strings.TrimSpace(fields[6]), 10, 64)
	if err != nil {
		return MSRRecord{}, fmt.Errorf("response time: %w", err)
	}
	rec := MSRRecord{
		Request: Request{
			Time:   time.Duration(ts) * filetimeTick,
			Op:     op,
			Offset: off,
			Size:   uint32(size),
		},
		Hostname:     strings.TrimSpace(fields[1]),
		DiskNumber:   disk,
		ResponseTime: time.Duration(resp) * filetimeTick,
	}
	if err := rec.Request.Validate(); err != nil {
		return MSRRecord{}, err
	}
	return rec, nil
}
