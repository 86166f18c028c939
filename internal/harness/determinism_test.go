package harness

import (
	"encoding/json"
	"testing"

	"ppbflash/internal/ftl"
)

// determinismScale is deliberately small: determinism is a property of
// the run machinery, not of figure shapes, so the smallest device that
// completes every experiment keeps the double sweep affordable. Divisor
// 128 is the floor — at 256 the multi-chip experiments genuinely run out
// of flash (PPB's per-pool pipelines eat the whole over-provisioning
// slack) — and turnover 1.0 halves the trace the shape tests replay.
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

// TestFiguresDeterministicAcrossParallelism: every registered figure must
// be byte-identical at RunAll parallelism 1 and 8 — each run owns its
// device, FTL and replay state, so worker scheduling can never leak into
// the measurements. This is the registry-wide generalization of the
// per-spec determinism tests, and it covers a6's dispatch policies
// (including the clock-reading least-loaded placement) through the
// registry.
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
	for _, id := range ExperimentOrder {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := determinismScale
			serial.Parallelism = 1
			wide := determinismScale
			wide.Parallelism = 8
			figSerial, err := Experiments[id](serial)
			if err != nil {
				t.Fatal(err)
			}
			figWide, err := Experiments[id](wide)
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
	for _, policy := range DispatchPolicies {
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
