package trace

import (
	"errors"
	"io"
)

// Stream is the pull-based request source every replay consumes: Next
// returns the next request and true, or ok=false once the stream ends.
// Readers and workload generators implement it so the harness and
// flashsim walk traces one request at a time — a multi-day MSR trace
// never has to reside fully in memory. Streams are one-shot: once Next
// returns false it keeps returning false, and implementations that can
// fail mid-stream (file readers) surface the cause through their own
// Err method after the stream ends.
type Stream interface {
	Next() (r Request, ok bool)
}

// SliceStream adapts an in-memory request slice into a Stream. The zero
// value is an empty stream.
type SliceStream struct {
	reqs []Request
	i    int
}

// NewSliceStream returns a stream yielding reqs in order. The slice is
// not copied; the caller must not mutate it while streaming.
//
//flashvet:testonly tests across the module replay hand-built request slices through it
func NewSliceStream(reqs []Request) *SliceStream {
	return &SliceStream{reqs: reqs}
}

// Next returns the next request in the slice.
func (s *SliceStream) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// ErrStream adapts an error-returning pull function (the idiom of the
// file readers in this package) into a Stream: any error — including
// io.EOF — ends the stream, and non-EOF errors are retained for Err.
// This keeps the replay loop free of error plumbing while the caller
// still distinguishes "trace ended" from "trace broke" after the run.
type ErrStream struct {
	next func() (Request, error)
	err  error
	done bool
}

// NewErrStream wraps next, which must return io.EOF (or any other error)
// to end the stream.
func NewErrStream(next func() (Request, error)) *ErrStream {
	return &ErrStream{next: next}
}

// Next returns the next request, ending the stream on any error.
func (s *ErrStream) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	r, err := s.next()
	if err != nil {
		s.done = true
		s.err = err
		return Request{}, false
	}
	return r, true
}

// Err returns the error that ended the stream, or nil if the stream is
// still live or ended cleanly at io.EOF.
func (s *ErrStream) Err() error {
	if errors.Is(s.err, io.EOF) {
		return nil
	}
	return s.err
}
