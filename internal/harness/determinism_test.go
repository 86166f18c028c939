package harness

import (
	"encoding/json"
	"testing"

	"ppbflash/internal/ftl"
)

// determinismScale is deliberately small: determinism is a property of
// the run machinery, not of figure shapes, so the smallest multi-chip
// device that completes keeps the double run affordable. Divisor 128 is
// the floor — at 256 the multi-chip runs genuinely run out of flash
// (PPB's per-pool pipelines eat the whole over-provisioning slack).
var determinismScale = Scale{DeviceDivisor: 128, WriteTurnover: 1.0, Seed: 3}

// figureBytes flattens a figure to a canonical byte form: the rendered
// table plus the JSON-encoded series (sorted keys, full float64
// round-trip precision).
func figureBytes(t *testing.T, fig *FigureResult) string {
	t.Helper()
	buf, err := json.Marshal(fig.Series)
	if err != nil {
		t.Fatal(err)
	}
	return fig.Table.String() + "\n" + string(buf)
}

// TestFiguresDeterministicAcrossParallelism: every registered experiment
// must be byte-identical at RunAll parallelism 1 and 8 — each run owns
// its device, FTL and replay state, so worker scheduling can never leak
// into the measurements. TestGoldenFigures makes the same comparison at
// quick scale through its fixtures; this check reads none, so it also
// holds during an -update run (which records at parallelism 1 and
// compares nothing) and names scheduling as the cause when it fails.
// Turnover 0.25 keeps the double sweep cheap while every experiment
// still collects garbage (motivation-3's conventional run erases 81
// blocks at this scale).
func TestFiguresDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("double full-registry sweep; skipped in -short")
	}
	if raceEnabled {
		// The per-policy and per-spec RunAll race tests keep their race
		// coverage; doubling every figure under instrumentation is pure
		// wall-clock (see race_on_test.go).
		t.Skip("full-registry double sweep; skipped under -race")
	}
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			serial := determinismScale
			serial.WriteTurnover = 0.25
			serial.Parallelism = 1
			wide := serial
			wide.Parallelism = 8
			figSerial, err := RunExperiment(id, serial)
			if err != nil {
				t.Fatal(err)
			}
			figWide, err := RunExperiment(id, wide)
			if err != nil {
				t.Fatal(err)
			}
			a, b := figureBytes(t, figSerial), figureBytes(t, figWide)
			if a != b {
				t.Errorf("experiment %s differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", id, a, b)
			}
		})
	}
}

// TestDispatchRunsDeterministicAcrossParallelism pins per-policy run
// determinism directly (not through a figure): the same spec under each
// dispatch policy must produce identical Results at parallelism 1 and 8,
// on a queued multi-chip device where the policy actually steers
// placement.
func TestDispatchRunsDeterministicAcrossParallelism(t *testing.T) {
	dev := determinismScale.DeviceConfig(16<<10, 2).WithChips(4)
	var specs []RunSpec
	for _, policy := range dispatchPolicies {
		specs = append(specs, RunSpec{
			Name: "det/" + policy.String(), Device: dev, Kind: KindPPB,
			FTLOptions: ftl.Options{Dispatch: policy},
			Workload:   determinismScale.WebSQLWorkload(), Prefill: true,
			QueueDepth: 16,
		})
	}
	serial, err := RunAll(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunAll(specs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if serial[i] != wide[i] {
			t.Errorf("%s: parallelism 1 result %+v != parallelism 8 %+v", specs[i].Name, serial[i], wide[i])
		}
	}
}
