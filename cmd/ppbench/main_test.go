package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins the up-front flag checks: an unknown -fig and
// negative or non-finite overrides are rejected with the valid range,
// while 0 keeps meaning "preset" (-divisor, -turnover) and GOMAXPROCS
// (-parallel). Each rejected value used to run the preset silently, and
// -fig nope failed only after Table 1 was printed.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name     string
		fig      string
		divisor  int
		turnover float64
		parallel int
		wantErr  string // substring of the error ("" = valid)
	}{
		{name: "defaults", fig: "all"},
		{name: "paper figure", fig: "12", divisor: 64, turnover: 2.5, parallel: 4},
		{name: "motivation figure", fig: "3"},
		{name: "last ablation", fig: "a10", divisor: 1, parallel: 1},
		{name: "unknown fig", fig: "nope", wantErr: `unknown -fig "nope" (want all or one of [12 13`},
		{name: "empty fig", fig: "", wantErr: "unknown -fig"},
		{name: "negative divisor", fig: "all", divisor: -4, wantErr: "-divisor -4 out of range"},
		{name: "negative turnover", fig: "all", turnover: -1, wantErr: "-turnover -1 out of range"},
		{name: "NaN turnover", fig: "all", turnover: math.NaN(), wantErr: "-turnover NaN out of range"},
		{name: "infinite turnover", fig: "all", turnover: math.Inf(1), wantErr: "-turnover +Inf out of range"},
		{name: "negative parallel", fig: "all", parallel: -3, wantErr: "-parallel -3 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.fig, tc.divisor, tc.turnover, tc.parallel)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("checkFlags() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("checkFlags() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseFlagsSeed: an explicit -seed reaches the scale whatever its
// value, 0 included, and leaving it out keeps the preset's seed. The
// check used to be "-seed != 0", so -seed 0 ran (and printed) seed 1.
func TestParseFlagsSeed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int64
	}{
		{[]string{"-fig", "a1", "-scale", "quick"}, 1},
		{[]string{"-fig", "a1", "-scale", "quick", "-seed", "0"}, 0},
		{[]string{"-seed", "7"}, 7},
		{[]string{"-seed=-3", "-scale", "paper"}, -3},
	} {
		opts, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("parseFlags(%q): %v", tc.args, err)
		}
		if opts.scale.Seed != tc.want {
			t.Errorf("parseFlags(%q): seed %d, want %d", tc.args, opts.scale.Seed, tc.want)
		}
	}
}

// TestParseFlagsOut: -out alone asks for the report, and leaving it out
// writes none. The report used to need -json as well, so -out on its
// own ran the figures, exited 0 and wrote nothing.
func TestParseFlagsOut(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "13", "-scale", "quick"}, ""},
		{[]string{"-fig", "13", "-scale", "quick", "-out", "x.json"}, "x.json"},
	} {
		opts, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("parseFlags(%q): %v", tc.args, err)
		}
		if opts.out != tc.want {
			t.Errorf("parseFlags(%q): out %q, want %q", tc.args, opts.out, tc.want)
		}
	}
}
