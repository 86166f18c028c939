package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppbflash/internal/trace"
)

// TestRunRejectsBadFlags: every bad flag exits 2 with the valid names or
// range, before the output file is created — an existing file keeps its
// contents (an unknown -format used to truncate it and then exit 1).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown format", []string{"-format", "bogus"}, `unknown format "bogus" (want msr or simple)`},
		{"unknown workload", []string{"-workload", "nope"}, "want websql, mediaserver or uniform"},
		{"zero requests", []string{"-requests", "0"}, "-requests 0 out of range: want at least 1"},
		{"negative requests", []string{"-requests", "-5"}, "-requests -5 out of range"},
		{"zero logical", []string{"-logical-mb", "0"}, "-logical-mb 0 out of range [1, 1073741824]"},
		{"negative logical", []string{"-logical-mb", "-1"}, "-logical-mb -1 out of range"},
		{"logical too large", []string{"-logical-mb", "1073741825"}, "out of range [1, 1073741824]"},
		{"unparsable flag", []string{"-requests", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "keep.csv")
			if err := os.WriteFile(out, []byte("keep\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-o", out), &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), tc.wantErr)
			}
			if got, err := os.ReadFile(out); err != nil || string(got) != "keep\n" {
				t.Errorf("output file now %q (err %v), want it untouched", got, err)
			}
		})
	}
}

// TestRunWritesTrace: a valid run emits exactly -requests requests in
// the chosen format, inside the -logical-mb space.
func TestRunWritesTrace(t *testing.T) {
	for _, format := range []string{"msr", "simple"} {
		t.Run(format, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace")
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", "websql", "-requests", "25", "-logical-mb", "4", "-format", format, "-o", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			src := trace.NewSimpleReader(f).Stream()
			if format == "msr" {
				src = trace.NewMSRReader(f).Stream()
			}
			n := 0
			for {
				r, ok := src.Next()
				if !ok {
					break
				}
				if r.End() > 4<<20 {
					t.Errorf("request %d ends at %d, beyond the 4 MiB space", n, r.End())
				}
				n++
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			if n != 25 {
				t.Errorf("trace holds %d requests, want 25", n)
			}
		})
	}
}

// TestRunOutputGolden pins tracegen's output for fixed flags byte for
// byte: the trace in both formats and the stderr summary line, against
// testdata/<case>.trace and testdata/<case>.stderr.
func TestRunOutputGolden(t *testing.T) {
	for _, tc := range []struct{ name, workload, format string }{
		{"websql-msr", "websql", "msr"},
		{"websql-simple", "websql", "simple"},
		{"mediaserver-msr", "mediaserver", "msr"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace")
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", tc.workload, "-requests", "300", "-logical-mb", "64", "-seed", "7",
				"-format", tc.format, "-o", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			matchGolden(t, tc.name+".trace", got)
			matchGolden(t, tc.name+".stderr", stderr.Bytes())
		})
	}
}

// matchGolden compares got with the fixture testdata/name.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from testdata/%s:\n--- got\n%.400s\n--- want\n%.400s", name, got, want)
	}
}
