package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The simple format is whitespace-separated "R|W offset size" lines with
// '#' comments — convenient for hand-written test fixtures and quick
// experiments with cmd/flashsim.

// SimpleReader streams requests from a simple-format trace, one line per
// Next, mirroring MSRReader's shape so both formats plug into the same
// replay path.
type SimpleReader struct {
	s    *bufio.Scanner
	line int
}

// NewSimpleReader wraps r for streaming reads of simple-format requests.
func NewSimpleReader(r io.Reader) *SimpleReader {
	return &SimpleReader{s: bufio.NewScanner(r)}
}

// Next returns the next request, or io.EOF at end of trace. A request
// that fails Request.Validate is reported like a parse error.
func (p *SimpleReader) Next() (Request, error) {
	for p.s.Scan() {
		p.line++
		text := strings.TrimSpace(p.s.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		req, err := parseSimpleLine(text)
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			return Request{}, fmt.Errorf("trace: line %d: %w", p.line, err)
		}
		return req, nil
	}
	if err := p.s.Err(); err != nil {
		return Request{}, err
	}
	return Request{}, io.EOF
}

// Stream adapts the reader into a pull-based Stream for replay, with the
// same error contract as MSRReader.Stream.
func (p *SimpleReader) Stream() *ErrStream {
	return NewErrStream(p.Next)
}

func parseSimpleLine(text string) (Request, error) {
	fields := strings.Fields(text)
	if len(fields) != 3 {
		return Request{}, fmt.Errorf("expected 'R|W offset size', got %q", text)
	}
	var op Op
	switch strings.ToUpper(fields[0]) {
	case "R", "READ":
		op = OpRead
	case "W", "WRITE":
		op = OpWrite
	default:
		return Request{}, fmt.Errorf("unknown op %q", fields[0])
	}
	off, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Request{}, fmt.Errorf("offset: %w", err)
	}
	size, err := strconv.ParseUint(fields[2], 10, 32)
	if err != nil {
		return Request{}, fmt.Errorf("size: %w", err)
	}
	return Request{Op: op, Offset: off, Size: uint32(size)}, nil
}

// SimpleWriter serializes requests in the simple format, one line per
// Write, mirroring MSRWriter.
type SimpleWriter struct {
	w *bufio.Writer
}

// NewSimpleWriter creates a buffered simple-format writer.
func NewSimpleWriter(w io.Writer) *SimpleWriter {
	return &SimpleWriter{w: bufio.NewWriter(w)}
}

// Write emits one request as an "R|W offset size" line.
func (w *SimpleWriter) Write(r Request) error {
	op := "R"
	if r.Op == OpWrite {
		op = "W"
	}
	_, err := fmt.Fprintf(w.w, "%s %d %d\n", op, r.Offset, r.Size)
	return err
}

// Flush flushes buffered output.
func (w *SimpleWriter) Flush() error { return w.w.Flush() }
