package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites the golden figure fixtures instead of diffing
// against them:
//
//	go test ./internal/harness -run TestGoldenFigures -update
//
// Commit the rewritten files together with whatever intentional change
// moved the numbers, so the diff documents the drift.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenFixture is the on-disk schema of one pinned experiment: the
// rendered table (one string per line) and the raw numeric series of
// its FigureResult at quick scale. Fixtures pin exact float64 values —
// every simulation is deterministic at any parallelism, so a diff is a
// real behavior change, never noise.
type goldenFixture struct {
	ID     string               `json:"id"`
	Scale  string               `json:"scale"`
	Table  []string             `json:"table"`
	Series map[string][]float64 `json:"series"`
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// TestGoldenFigures runs every registered experiment at quick scale and
// demands its table and series byte for byte against testdata/golden.
// -update records at parallelism 1; the check runs at parallelism 8, so
// the same comparison also proves that worker scheduling never leaks
// into the measurements (each run owns its device, FTL and replay
// state; TestFiguresDeterministicAcrossParallelism checks that without
// fixtures). Intentional changes re-record with -update; the committed
// fixture diff then documents exactly which figures moved.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale figure sweep; skipped in -short")
	}
	if raceEnabled {
		t.Skip("full-registry regression sweep; skipped under -race (see race_on_test.go)")
	}
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			s := QuickScale
			s.Parallelism = 8
			if *updateGolden {
				s.Parallelism = 1
			}
			fig, err := RunExperiment(id, s)
			if err != nil {
				t.Fatal(err)
			}
			table := strings.Split(strings.TrimSuffix(fig.Table.String(), "\n"), "\n")
			got, err := json.MarshalIndent(goldenFixture{
				ID: fig.ID, Scale: "quick", Table: table, Series: fig.Series,
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to record): %v", err)
			}
			if string(got) == string(want) {
				return
			}
			// Byte diff confirmed: decode both to report which series
			// drifted rather than dumping two JSON blobs.
			var old goldenFixture
			if err := json.Unmarshal(want, &old); err != nil {
				t.Fatalf("fixture %s is corrupt: %v", path, err)
			}
			if strings.Join(table, "\n") != strings.Join(old.Table, "\n") {
				t.Errorf("%s: table differs:\n--- got ---\n%s\n--- fixture ---\n%s",
					id, strings.Join(table, "\n"), strings.Join(old.Table, "\n"))
			}
			for name, vals := range fig.Series {
				oldVals, ok := old.Series[name]
				if !ok {
					t.Errorf("%s: new series %q not in fixture", id, name)
					continue
				}
				if len(vals) != len(oldVals) {
					t.Errorf("%s: series %q has %d points, fixture %d", id, name, len(vals), len(oldVals))
					continue
				}
				for i := range vals {
					if vals[i] != oldVals[i] {
						t.Errorf("%s: series %q[%d] = %v, fixture %v", id, name, i, vals[i], oldVals[i])
					}
				}
			}
			for name := range old.Series {
				if _, ok := fig.Series[name]; !ok {
					t.Errorf("%s: fixture series %q no longer produced", id, name)
				}
			}
			t.Errorf("%s drifted from %s (intentional? re-record with -update)", id, path)
		})
	}
}
