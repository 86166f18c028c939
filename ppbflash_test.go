package ppbflash

import (
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end the way a
// downstream user would; the deep behavioral coverage lives with the
// internal packages.

func TestQuickstartFlow(t *testing.T) {
	cfg := TableOneConfig().Scaled(512)
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPPB(dev, PPBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 512); err != nil {
		t.Fatal(err)
	}
	mapped, err := f.Read(0)
	if err != nil || !mapped {
		t.Fatalf("read: %v %v", mapped, err)
	}
	if f.Stats().HostReads.Value() != 1 {
		t.Error("stats not wired")
	}
}

func TestFacadeConstructors(t *testing.T) {
	t.Run("ppb", func(t *testing.T) {
		dev, err := NewDevice(TableOneConfig().Scaled(512))
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewPPB(dev, PPBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() == "" || f.LogicalPages() == 0 {
			t.Error("FTL metadata missing")
		}
	})
}

func TestFacadeWorkloadsAndReplay(t *testing.T) {
	dev, err := NewDevice(TableOneConfig().Scaled(512))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPPB(dev, PPBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logical := f.LogicalPages() * uint64(dev.Config().PageSize)
	web := NewWebSQL(WebSQLConfig{LogicalBytes: logical, Requests: 2000, Seed: 3})
	if got := len(collectAll(web)); got != 2000 {
		t.Errorf("websql requests = %d", got)
	}
	media := NewMediaServer(MediaServerConfig{LogicalBytes: logical, Requests: 10, Seed: 3})
	if got := len(collectAll(media)); got != 10 {
		t.Errorf("media requests = %d", got)
	}
}

func collectAll(g Generator) []Request {
	var out []Request
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 18 {
		t.Fatalf("experiments = %d, want 18", len(ids))
	}
	_, err := Experiment("nope", QuickScale)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range ids {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("unknown-experiment error %q does not list %s", err, id)
		}
	}
	if _, err := Experiment(ids[0], Scale{}); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure")
	}
	tiny := Scale{DeviceDivisor: 128, WriteTurnover: 1.0, Seed: 2}
	fig, err := Experiment("12", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Table == nil || len(fig.Series) == 0 {
		t.Error("empty figure result")
	}
}

func TestTableOneFacade(t *testing.T) {
	if TableOne().Table.String() == "" {
		t.Error("empty Table 1")
	}
}

func TestLevelsExported(t *testing.T) {
	if !IronHot.Fast() || !Cold.Fast() || Hot.Fast() || IcyCold.Fast() {
		t.Error("level speed mapping broken")
	}
}

func TestRunFacade(t *testing.T) {
	tiny := Scale{DeviceDivisor: 256, WriteTurnover: 1.0, Seed: 2}
	res, err := Run(RunSpec{
		Name:   "facade",
		Device: tiny.DeviceConfig(16<<10, 2.0),
		Kind:   KindPPB,
		Workload: func(lb uint64) Generator {
			return NewWebSQL(WebSQLConfig{LogicalBytes: lb, Requests: 5000, Seed: 4})
		},
		Prefill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostReadPages == 0 || res.ReadTotal <= 0 {
		t.Error("empty result")
	}
}
