package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ppbflash"
	"ppbflash/internal/trace"
)

// updateGolden rewrites the report fixtures instead of diffing:
//
//	go test ./cmd/flashsim -run TestReportGoldens -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden fixtures")

// goldenArrivalGap spaces the arrivals of the timestamped trace copy the
// open-loop mix replays.
const goldenArrivalGap = 200 * time.Microsecond

// writeGoldenTraces writes the 20,000-request websql MSR trace (seed 1,
// 1 GiB logical space — tracegen's defaults apart from -requests) into
// dir, once as generated (every arrival at t=0) and once with arrivals
// goldenArrivalGap apart, and returns both paths.
func writeGoldenTraces(t *testing.T, dir string) (plain, timed string) {
	t.Helper()
	plain = filepath.Join(dir, "websql.csv")
	timed = filepath.Join(dir, "websql-timed.csv")
	gen := ppbflash.NewWebSQL(ppbflash.WebSQLConfig{LogicalBytes: 1 << 30, Requests: 20_000, Seed: 1})
	var pb, tb bytes.Buffer
	pw := trace.NewMSRWriter(&pb, gen.Name(), 0)
	tw := trace.NewMSRWriter(&tb, gen.Name(), 0)
	for i := 0; ; i++ {
		r, ok := gen.Next()
		if !ok {
			break
		}
		if err := pw.Write(r); err != nil {
			t.Fatal(err)
		}
		r.Time = time.Duration(i) * goldenArrivalGap
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(plain, pb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(timed, tb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return plain, timed
}

// wallTime matches the host-time fragment of the speed: line, the only
// part of a report that is not a simulated number.
var wallTime = regexp.MustCompile(`events replayed in \S+ \(\d+ events/s wall\)`)

// maskReport makes a report comparable across hosts and runs: the temp
// directory becomes $DIR and the wall-time fragment becomes fixed text.
func maskReport(s, dir string) string {
	s = strings.ReplaceAll(s, dir, "$DIR")
	return wallTime.ReplaceAllString(s, "events replayed in WALL (WALL events/s wall)")
}

// TestReportGoldens replays both baseline FTLs through six knob mixes
// on a 0.25 GiB device and compares flashsim's exit status, stdout and
// stderr with testdata/<mix>.golden. The mixes cover multi-chip
// dispatch with erase deferral, planes with erase suspend, a
// three-tenant partition (where PPB runs out of space, so that end
// state is pinned too, and no report is printed), a two-tenant
// partition (whose per-tenant report lines pin the tenant wiring), and
// both reliability presets with a wear policy, the last one open-loop
// on timestamped arrivals. A change to how the flags reach the
// simulation must leave every report byte-identical.
func TestReportGoldens(t *testing.T) {
	dir := t.TempDir()
	plain, timed := writeGoldenTraces(t, dir)
	mixes := []struct {
		name  string
		trace string
		args  []string
	}{
		{"least-loaded-defer", plain, []string{"-chips", "4", "-dispatch", "least-loaded", "-defer-erases", "-qd", "8"}},
		{"planes-suspend-affinity", plain, []string{"-chips", "4", "-planes", "2", "-suspend", "erase",
			"-dispatch", "hotcold-affinity", "-defer-erases", "-qd", "8"}},
		{"tenant-partition", plain, []string{"-chips", "4", "-tenants", "3", "-dispatch", "tenant-partition", "-qd", "8"}},
		{"two-tenant-partition", plain, []string{"-chips", "4", "-tenants", "2", "-dispatch", "tenant-partition", "-qd", "8"}},
		{"reliability-high", plain, []string{"-reliability", "high", "-wear", "wear-aware", "-qd", "4"}},
		{"reliability-low-openloop", timed, []string{"-reliability", "low", "-wear", "threshold-swap", "-openloop", "-qd", "8"}},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			args := append([]string{"-trace", mix.trace, "-ftl", "conventional,ppb", "-parallel", "1", "-gb", "0.25"}, mix.args...)
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			got := []byte(fmt.Sprintf("args: %s\nexit: %d\n--- stdout\n%s--- stderr\n%s",
				strings.Join(args[2:], " "), code, maskReport(stdout.String(), dir), maskReport(stderr.String(), dir)))
			path := filepath.Join("testdata", mix.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to record): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
