package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ppbflash/internal/harness"
)

// tinyScale shrinks every workload until a replay takes a fraction of a
// second, keeping enough writes for ten samples beyond their p999.
func tinyScale() harness.Scale {
	return harness.Scale{DeviceDivisor: 128, WriteTurnover: 2, Seed: 1}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	Why  string `json:"why"`
}

// benchmarkFile is the part of BENCHMARK.json the output must match.
type benchmarkFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size and checks that it passes
// its own checks and prints exactly the metrics BENCHMARK.json declares,
// each with its declared unit, in both trace modes. The workloads, with
// their reasons, must be exactly the ones BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, decl := range spec.Workloads {
		w, err := workloadByName(decl.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		} else if w.why != decl.Why {
			t.Errorf("workload %s: BENCHMARK.json gives the reason %q, the benchmark %q", w.name, decl.Why, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(w, tinyScale(), 1, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				traced bool
				want   []declared
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				var out bytes.Buffer
				rep.print(&out, mode.traced)
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted uint64            `json:"attempted"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d; output:\n%s", res.Correct, res.Attempted, text)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(text, "  "+m.Name+" ") {
						t.Errorf("the human-readable lines do not print %s", m.Name)
					}
				}
			}
		})
	}
}

// TestMatchesHarnessRun checks that the benchmark's own replay pipeline,
// the MSR round trip included, reproduces harness.Run on the same spec.
func TestMatchesHarnessRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := tinyScale()
			opts, err := w.options(s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			opts.OverProvision = overProvision
			src, err := w.prepare(s, logicalBytes(s), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sim, _, err := replay(w, s, opts, src, nil, &captureBuffers{})
			if err != nil {
				t.Fatal(err)
			}
			spec := harness.RunSpec{
				Name: w.name, Device: benchDevice(s), Kind: harness.KindConventional,
				FTLOptions: opts, Prefill: true, QueueDepth: queueDepth,
				Workload: w.input(s),
			}
			if w.ppb {
				spec.Kind = harness.KindPPB
			}
			res, err := harness.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"makespan", sim.makespan, res.Makespan},
				{"waf", sim.waf, res.WAF},
				{"device ops", sim.devOps, res.DeviceOps},
				{"events", sim.events, res.ReplayEvents},
				{"gc copies", sim.gcCopies, res.GCCopies},
				{"retried reads", sim.retried, res.RetriedReads},
			} {
				if c.got != c.want {
					t.Errorf("%s: benchmark %v, harness.Run %v", c.name, c.got, c.want)
				}
			}
		})
	}
}
