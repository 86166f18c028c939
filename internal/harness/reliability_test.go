package harness

import (
	"errors"
	"fmt"
	"testing"

	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
)

// TestReliabilitySweepShape runs experiment a9 at CI scale and asserts
// the qualitative claims the sweep exists to demonstrate, independent of
// the golden fixture's exact numbers:
//
//   - read-retry rate grows strictly with P/E cycling (the write-
//     turnover axis ages the device and the retry rate must follow);
//   - the aggressive BER profile retries more than the mild one at
//     every wear/FTL point;
//   - wear leveling never hurts the lifetime proxy, and the static
//     threshold-swap policy strictly beats no leveling;
//   - the replay points run on an intact device (no retirement — the
//     presets' P/E limits sit above replay wear by design).
func TestReliabilitySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("a9 sweep runs full trace replays; skipped in -short")
	}
	fig, err := reliabilitySweep(QuickScale)
	if err != nil {
		t.Fatal(err)
	}

	cyc := fig.Series["cycling/retryrate"]
	if len(cyc) != len(reliabilityCyclingTurnovers) {
		t.Fatalf("cycling series has %d points, want %d", len(cyc), len(reliabilityCyclingTurnovers))
	}
	for i := 1; i < len(cyc); i++ {
		if cyc[i] <= cyc[i-1] {
			t.Errorf("retry rate did not grow with P/E cycling: %v", cyc)
		}
	}

	for _, wear := range reliabilityWearPolicies {
		for _, kind := range []string{"conventional", "ppb"} {
			point := func(prof, series string) float64 {
				key := fmt.Sprintf("%s/%s/%s/%s", prof, wear, kind, series)
				v, ok := fig.Series[key]
				if !ok || len(v) != 1 {
					t.Fatalf("series %q missing or malformed: %v", key, v)
				}
				return v[0]
			}
			low, high := point("low", "retryrate"), point("high", "retryrate")
			if !(low > 0 && low < 1 && high > 0 && high < 1) {
				t.Errorf("%s/%s: retry rates %g/%g outside (0,1)", wear, kind, low, high)
			}
			if high <= low {
				t.Errorf("%s/%s: high-BER retry rate %g not above low %g", wear, kind, high, low)
			}
			for _, prof := range reliabilityProfiles {
				if r := point(prof, "retired"); r != 0 {
					t.Errorf("%s/%s/%s: %g blocks retired during replay; presets must keep the device intact", prof, wear, kind, r)
				}
				if m := point(prof, "meanretry"); m < 1 {
					t.Errorf("%s/%s/%s: mean retry steps %g below 1", prof, wear, kind, m)
				}
			}
		}
	}

	lifetime := func(wear string) float64 {
		v, ok := fig.Series["lifetime/"+wear]
		if !ok || len(v) != 1 {
			t.Fatalf("lifetime series for %q missing: %v", wear, v)
		}
		return v[0]
	}
	none, aware, swap := lifetime("none"), lifetime("wear-aware"), lifetime("threshold-swap")
	if none <= 0 {
		t.Fatalf("baseline lifetime proxy %g", none)
	}
	if aware < none {
		t.Errorf("wear-aware lifetime %g below no-leveling %g", aware, none)
	}
	if swap <= none {
		t.Errorf("threshold-swap lifetime %g not strictly above no-leveling %g", swap, none)
	}
}

// TestFailedWriteKeepsOldCopy: a host write that fails for lack of space
// must leave its LPN mapped to the old copy, still valid. P/E-limit
// retirement (the high profile, limit 3) shrinks a 20-block device until
// a write fails with ErrNoSpace; every strategy must then pass the
// mapping and device accounting checks.
func TestFailedWriteKeepsOldCopy(t *testing.T) {
	cfg := QuickScale.DeviceConfig(16<<10, 2).Scaled(8).WithChips(4)
	prof, err := nand.ReliabilityProfileByName("high")
	if err != nil {
		t.Fatal(err)
	}
	prof.PECycleLimit = 3
	for _, kind := range FTLKindNames {
		t.Run(kind, func(t *testing.T) {
			dev := nand.MustNewDevice(cfg)
			f, err := buildFTL(RunSpec{Kind: FTLKind(kind), FTLOptions: ftl.Options{
				OverProvision: 0.1, Reliability: &prof, ReliabilitySeed: 1,
			}}, dev)
			if err != nil {
				t.Fatal(err)
			}
			// Each LPN once in order, then a stride-7919 walk; every
			// third write is a 1 MiB request, the rest 4 KiB.
			span := f.LogicalPages()
			limit := cfg.TotalPages() * uint64(prof.PECycleLimit+1) * 2
			var i uint64
			for ; i < limit; i++ {
				lpn, size := i, 4096
				if i >= span {
					lpn = i * 7919 % span
				}
				if i%3 == 0 {
					size = 1 << 20
				}
				if err = f.Write(lpn, size); err != nil {
					break
				}
			}
			if !errors.Is(err, ftl.ErrNoSpace) {
				t.Fatalf("after %d writes: %v, want ErrNoSpace", i, err)
			}
			if err := f.(interface{ CheckMapping() error }).CheckMapping(); err != nil {
				t.Errorf("after failed write %d: %v", i, err)
			}
			if err := dev.CheckAccounting(); err != nil {
				t.Errorf("after failed write %d: %v", i, err)
			}
		})
	}
}
