package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppbflash"
)

// TestValidateNames pins the up-front policy-name resolution: unknown
// -ftl/-dispatch/-reliability/-wear/-suspend values must be rejected before
// any trace is loaded, and the error must list the valid
// spellings so the exit-2 message is actionable. Valid names resolve to
// the typed options the run uses.
func TestValidateNames(t *testing.T) {
	const (
		okFTL  = "ppb"
		okDisp = "striped"
		okRel  = "off"
		okWear = "none"
	)
	cases := []struct {
		name        string
		ftl         string
		dispatch    string
		reliability string
		wear        string
		suspend     string
		wantErr     string // substring of the error ("" = valid)
	}{
		{name: "defaults", ftl: okFTL, dispatch: okDisp, reliability: okRel, wear: okWear},
		{name: "every ftl", ftl: "conventional,ppb,greedy-speed,hotcold-split",
			dispatch: okDisp, reliability: okRel, wear: okWear},
		{name: "ftl list with spaces and trailing comma", ftl: " conventional , ppb ,",
			dispatch: okDisp, reliability: okRel, wear: okWear},
		{name: "reliability and wear enabled", ftl: okFTL,
			dispatch: okDisp, reliability: "high", wear: "threshold-swap"},
		{name: "unknown ftl", ftl: "pbb",
			dispatch: okDisp, reliability: okRel, wear: okWear,
			wantErr: "conventional, ppb, greedy-speed, hotcold-split"},
		{name: "unknown ftl in list", ftl: "conventional,bogus",
			dispatch: okDisp, reliability: okRel, wear: okWear,
			wantErr: `unknown FTL "bogus"`},
		{name: "unknown dispatch", ftl: okFTL,
			dispatch: "round-robin", reliability: okRel, wear: okWear,
			wantErr: "striped, least-loaded, hotcold-affinity or tenant-partition"},
		{name: "unknown reliability", ftl: okFTL,
			dispatch: okDisp, reliability: "medium", wear: okWear,
			wantErr: "off, low or high"},
		{name: "unknown wear", ftl: okFTL,
			dispatch: okDisp, reliability: okRel, wear: "static",
			wantErr: "none, wear-aware or threshold-swap"},
		{name: "suspend enabled", ftl: okFTL,
			dispatch: okDisp, reliability: okRel, wear: okWear, suspend: "erase"},
		{name: "unknown suspend", ftl: okFTL,
			dispatch: okDisp, reliability: okRel, wear: okWear, suspend: "preemptive",
			wantErr: "off, erase or full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			suspend := tc.suspend
			if suspend == "" {
				suspend = "off"
			}
			_, err := resolveNames(tc.ftl, tc.dispatch, tc.reliability, tc.wear, suspend)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("resolveNames() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("resolveNames() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("resolveNames() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}

	opts, err := resolveNames(okFTL, "tenant-partition", "high", "threshold-swap", "full")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Dispatch.String() != "tenant-partition" || opts.Wear.String() != "threshold-swap" ||
		opts.Suspend.String() != "full" || opts.Reliability == nil || !opts.Reliability.Enabled {
		t.Errorf("resolveNames resolved %+v, want every named policy set", opts)
	}
	if opts, err := resolveNames(okFTL, okDisp, okRel, okWear, "off"); err != nil || opts.Reliability != nil {
		t.Errorf("reliability %q resolved to %v (err %v), want no model", okRel, opts.Reliability, err)
	}
}

// TestValidateRanges pins the up-front flag checks: -gb outside
// (0, 64], -tenants outside [1, 8], -qd, -chips or -planes below 1,
// -pagesize below 4096, -chips above the device's block count, a
// negative -parallel or -reorder-window, an unknown -format, a -disk
// below -1 and a -disk with the disk-less simple format must be
// rejected with the valid range or names in the message instead of
// being silently replaced (-gb 0 and -gb 100 used to replay on the full
// 64 GiB device, -qd -5 at depth 1 while the report printed QD -5,
// -chips 0 and -planes 0 on one chip and one plane, -chips 1000 at
// -gb 1 on the device's 170 blocks as 170 chips, -pagesize 64 printed
// "0 KB pages", -pagesize 0 panicked, -parallel -3 ran at GOMAXPROCS,
// -disk -5 replayed every disk and -disk 3 -format simple ignored the
// disk) or failing late (-reorder-window -1s inside the run, -format
// bogus in the trace scan with exit 1). An empty format means msr.
func TestValidateRanges(t *testing.T) {
	const page = 16 << 10
	cases := []struct {
		name                    string
		gb                      float64
		qd, tenants             int
		pageSize, chips, planes int
		parallel, disk          int
		reorder                 time.Duration
		format                  string
		wantErr                 string // substring of the error ("" = valid)
	}{
		{name: "defaults", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1},
		{name: "full device", gb: 64, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1},
		{name: "fraction of a GiB", gb: 0.125, qd: 64, tenants: ppbflash.MaxTenants, pageSize: page, chips: 8, planes: 4},
		{name: "zero gb", gb: 0, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-gb 0 out of range (0, 64]"},
		{name: "negative gb", gb: -1, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "(0, 64]"},
		{name: "gb above device", gb: 65, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-gb 65 out of range (0, 64]"},
		{name: "gb NaN", gb: math.NaN(), qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "(0, 64]"},
		{name: "gb below smallest device", gb: 0.05, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-gb 0.05 out of range (64/683 = 0.0937, 64]"},
		{name: "gb divisor overflow", gb: 1e-300, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-gb 1e-300 out of range (64/683"},
		{name: "smallest device", gb: 0.1, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1},
		{name: "zero qd", gb: 4, qd: 0, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-qd 0 out of range: want at least 1"},
		{name: "negative qd", gb: 4, qd: -5, tenants: 1, pageSize: page, chips: 1, planes: 1, wantErr: "-qd -5 out of range"},
		{name: "zero tenants", gb: 4, qd: 1, tenants: 0, pageSize: page, chips: 1, planes: 1, wantErr: "-tenants 0 out of range [1, 8]"},
		{name: "too many tenants", gb: 4, qd: 1, tenants: ppbflash.MaxTenants + 1, pageSize: page, chips: 1, planes: 1, wantErr: "[1, 8]"},
		{name: "zero pagesize", gb: 4, qd: 1, tenants: 1, pageSize: 0, chips: 1, planes: 1, wantErr: "-pagesize 0 out of range: want at least 4096"},
		{name: "pagesize below floor", gb: 0.125, qd: 1, tenants: 1, pageSize: 64, chips: 1, planes: 1, wantErr: "-pagesize 64 out of range: want at least 4096"},
		{name: "pagesize at floor", gb: 64, qd: 1, tenants: 1, pageSize: 4096, chips: 1, planes: 1},
		{name: "chips above blocks", gb: 1, qd: 1, tenants: 1, pageSize: page, chips: 1000, planes: 1, wantErr: "-chips 1000 out of range [1, 170]"},
		{name: "one block per chip", gb: 1, qd: 1, tenants: 1, pageSize: page, chips: 170, planes: 1},
		{name: "negative pagesize", gb: 4, qd: 1, tenants: 1, pageSize: -4096, chips: 1, planes: 1, wantErr: "-pagesize -4096 out of range"},
		{name: "zero chips", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 0, planes: 1, wantErr: "-chips 0 out of range: want at least 1"},
		{name: "negative chips", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: -3, planes: 1, wantErr: "-chips -3 out of range"},
		{name: "zero planes", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 0, wantErr: "-planes 0 out of range: want at least 1"},
		{name: "negative planes", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: -2, wantErr: "-planes -2 out of range"},
		{name: "parallel workers", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, parallel: 3},
		{name: "negative parallel", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, parallel: -3,
			wantErr: "-parallel -3 out of range: want at least 1, or 0 for GOMAXPROCS"},
		{name: "reorder window", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 2, reorder: time.Millisecond},
		{name: "negative reorder window", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 2, reorder: -time.Second,
			wantErr: "-reorder-window -1s out of range: want at least 0"},
		{name: "simple format", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, format: "simple", disk: -1},
		{name: "unknown format", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, format: "bogus", disk: -1,
			wantErr: `unknown -format "bogus" (want msr or simple)`},
		{name: "every msr disk", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, disk: -1},
		{name: "one msr disk", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, disk: 3},
		{name: "disk below all", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, disk: -5,
			wantErr: "-disk -5 out of range: want a disk number of at least 0, or -1 for all disks"},
		{name: "disk with simple format", gb: 4, qd: 1, tenants: 1, pageSize: page, chips: 1, planes: 1, format: "simple", disk: 3,
			wantErr: "-disk 3 needs -format msr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			format := tc.format
			if format == "" {
				format = "msr"
			}
			err := validateRanges(rangeFlags{gb: tc.gb, qd: tc.qd, tenants: tc.tenants, pageSize: tc.pageSize,
				chips: tc.chips, planes: tc.planes, parallel: tc.parallel, disk: tc.disk, reorder: tc.reorder, format: format})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateRanges() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validateRanges() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsBadGeometry: an out-of-range geometry, worker count,
// reorder window or trace selection exits 2 naming the valid range or
// names before the trace is read — the trace path does not exist, so a
// run that reached the trace scan would exit 1 instead.
func TestRunRejectsBadGeometry(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gb", "0.125", "-pagesize", "64"}, "-pagesize 64 out of range: want at least 4096"},
		{[]string{"-gb", "1", "-chips", "1000"}, "-chips 1000 out of range [1, 170]"},
		{[]string{"-gb", "0.05"}, "-gb 0.05 out of range (64/683"},
		{[]string{"-gb", "1e-300"}, "-gb 1e-300 out of range (64/683"},
		{[]string{"-parallel", "-3"}, "-parallel -3 out of range: want at least 1, or 0 for GOMAXPROCS"},
		{[]string{"-disk", "-5"}, "-disk -5 out of range: want a disk number of at least 0, or -1 for all disks"},
		{[]string{"-disk", "3", "-format", "simple"}, "-disk 3 needs -format msr"},
		{[]string{"-reorder-window", "-1s"}, "-reorder-window -1s out of range: want at least 0"},
		{[]string{"-format", "bogus"}, `unknown -format "bogus" (want msr or simple)`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-trace", missing}, tc.args...), &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", tc.args, code, stderr.String(), tc.want)
		}
	}
}

// writeSimpleTrace writes n "W offset size" lines to a temp file and
// returns its path.
func writeSimpleTrace(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "W %d 4096\n", (i*4096)%(1<<28))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceStreamDoesNotMaterialize pins the streaming contract of the
// replay path: pulling the first request from a traceStream must not
// read the whole trace file. The file is megabytes long; after one
// Next the file position may only have advanced by the scanner's
// read-ahead buffer, proving the trace is parsed one request at a time
// rather than materialized up front.
func TestTraceStreamDoesNotMaterialize(t *testing.T) {
	const n = 200000
	path := writeSimpleTrace(t, n)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 1<<21 {
		t.Fatalf("trace file only %d bytes; too small to prove streaming", fi.Size())
	}

	st := &traceStream{path: path, format: "simple", disk: -1, bytes: 1 << 30}
	if _, ok := st.Next(); !ok {
		t.Fatalf("first Next failed: %v", st.Err())
	}
	pos, err := st.f.Seek(0, io.SeekCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if pos >= fi.Size()/4 {
		t.Fatalf("after one request the stream consumed %d of %d bytes; trace was materialized, not streamed", pos, fi.Size())
	}

	count := 1
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		count++
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream ended with error: %v", err)
	}
	if count != n {
		t.Fatalf("streamed %d requests, want %d", count, n)
	}
}

// TestScanTrace pins the up-front validation pass: the count matches
// the file, the simple format carries no arrival timestamps, and a
// malformed line is reported before any simulation would start.
func TestScanTrace(t *testing.T) {
	path := writeSimpleTrace(t, 1000)
	n, hasTimes, err := scanTrace(path, "simple", -1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("scanTrace counted %d requests, want 1000", n)
	}
	if hasTimes {
		t.Fatal("simple format has no timestamps, but scanTrace reported hasTimes")
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("W 0 4096\nX nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanTrace(bad, "simple", -1); err == nil {
		t.Fatal("scanTrace accepted a malformed trace line")
	}
}

// TestTraceStreamConcurrentReplays replays one trace file through two
// FTL strategies at once, the way flashsim -ftl a,b does: each spec
// owns an independent traceStream (own file handle, own position), so
// the concurrent runs must both see the full trace and end clean.
func TestTraceStreamConcurrentReplays(t *testing.T) {
	path := writeSimpleTrace(t, 2000)
	cfg := ppbflash.TableOneConfig().Scaled(64)

	var specs []ppbflash.RunSpec
	var streams []*traceStream
	for _, kind := range []ppbflash.FTLKind{ppbflash.KindConventional, ppbflash.KindPPB} {
		st := &traceStream{path: path, format: "simple", disk: -1}
		streams = append(streams, st)
		specs = append(specs, ppbflash.RunSpec{
			Name:       "stream/" + string(kind),
			Device:     cfg,
			Kind:       kind,
			QueueDepth: 4,
			Workload: func(logicalBytes uint64) ppbflash.Generator {
				st.bytes = logicalBytes
				return st
			},
		})
	}
	results, err := ppbflash.RunAll(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		if err := st.Err(); err != nil {
			t.Fatalf("stream %d ended with error: %v", i, err)
		}
		if results[i].HostWritePage == 0 {
			t.Fatalf("run %d replayed no writes", i)
		}
		if results[i].DeviceOps == 0 || results[i].SimOpsPerSec <= 0 {
			t.Fatalf("run %d reported no simulated throughput: ops=%d ops/s=%g",
				i, results[i].DeviceOps, results[i].SimOpsPerSec)
		}
	}
	if results[0].HostWritePage != results[1].HostWritePage {
		t.Fatalf("strategies saw different traces: %d vs %d host writes",
			results[0].HostWritePage, results[1].HostWritePage)
	}
}
