package harness

import "testing"

// TestDiagBenchScale measures the conv/PPB gap at the scale the figures
// run at (341-block device). Run explicitly:
//
//	go test ./internal/harness -run TestDiagBenchScale -v -timeout 30m
func TestDiagBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	s := BenchScale
	for _, pt := range paperTraces {
		tr, wl := pt.name, pt.workload(s)
		dev := s.DeviceConfig(16<<10, 2.0)
		conv, err := Run(RunSpec{Name: tr + "/conv", Device: dev, Kind: KindConventional, Workload: wl, Prefill: true})
		if err != nil {
			t.Fatal(err)
		}
		ppb, err := Run(RunSpec{Name: tr + "/ppb", Device: dev, Kind: KindPPB, Workload: wl, Prefill: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: conv read=%v write=%v erases=%d | ppb read=%v write=%v erases=%d fastShare=%.3f",
			tr, conv.ReadTotal, conv.WriteTotal, conv.Erases,
			ppb.ReadTotal, ppb.WriteTotal, ppb.Erases, ppb.FastReadShare)
		t.Logf("%s: read enh %.2f%%, write delta %+.2f%%, erase delta %+.2f%%", tr,
			100*(1-ppb.ReadTotal.Seconds()/conv.ReadTotal.Seconds()),
			100*(ppb.WriteTotal.Seconds()/conv.WriteTotal.Seconds()-1),
			100*(float64(ppb.Erases)/float64(conv.Erases)-1))
	}
}
