package ppbflash

// One benchmark per paper artifact (Table 1 has a config test instead;
// see internal/nand). Each benchmark executes the figure's full
// experiment at a CI-friendly scale and reports the headline number of
// that figure as a custom metric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation:
//
//	BenchmarkFigure12ReadEnhancement   websql/media read enhancement (%)
//	BenchmarkFigure13MediaReadSweep    media read totals, 2x..5x (s)
//	BenchmarkFigure14WebReadSweep      websql read totals, 2x..5x (s)
//	BenchmarkFigure15WriteEnhancement  write deltas (%)
//	BenchmarkFigure16MediaWriteSweep   media write totals (s)
//	BenchmarkFigure17WebWriteSweep     websql write totals (s)
//	BenchmarkFigure18EraseCount        erase counts
//	BenchmarkMotivationFig3            GC copies of the naive strawman
//	BenchmarkAblation*                 the reproduction's extra studies
//
// Absolute wall-clock time of these benchmarks is simulation time, not
// device time; the custom metrics carry the figures' semantics. The
// hot-path benchmarks (page ops and the replay's event loop, each held
// at 0 allocs/op) live in internal/harness.

import (
	"fmt"
	"testing"
)

// benchScale matches the harness bench preset (2 GB device): write and
// erase parity are steady-state properties that need a realistically
// sized device, so the figure benchmarks pay for one (the full suite
// still finishes in a few minutes).
var benchScale = BenchScale

func runExperiment(b *testing.B, id string, s Scale) *FigureResult {
	b.Helper()
	var fig *FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = Experiment(id, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

func report(b *testing.B, fig *FigureResult, series string, idx int, unit string, scale float64) {
	b.Helper()
	vals, ok := fig.Series[series]
	if !ok || idx >= len(vals) {
		b.Fatalf("series %q[%d] missing (have %v)", series, idx, keys(fig))
	}
	b.ReportMetric(vals[idx]*scale, unit)
}

func keys(fig *FigureResult) []string {
	out := make([]string, 0, len(fig.Series))
	for k := range fig.Series {
		out = append(out, k)
	}
	return out
}

func BenchmarkFigure12ReadEnhancement(b *testing.B) {
	fig := runExperiment(b, "12", benchScale)
	report(b, fig, "websql/16K", 0, "websql16K-enh-%", 100)
	report(b, fig, "websql/8K", 0, "websql8K-enh-%", 100)
	report(b, fig, "mediaserver/16K", 0, "media16K-enh-%", 100)
	report(b, fig, "mediaserver/8K", 0, "media8K-enh-%", 100)
}

func BenchmarkFigure13MediaReadSweep(b *testing.B) {
	fig := runExperiment(b, "13", benchScale)
	for i, ratio := range []int{2, 3, 4, 5} {
		report(b, fig, "ppb", i, fmt.Sprintf("ppb-%dx-s", ratio), 1)
		report(b, fig, "conventional", i, fmt.Sprintf("conv-%dx-s", ratio), 1)
	}
}

func BenchmarkFigure14WebReadSweep(b *testing.B) {
	fig := runExperiment(b, "14", benchScale)
	for i, ratio := range []int{2, 3, 4, 5} {
		report(b, fig, "ppb", i, fmt.Sprintf("ppb-%dx-s", ratio), 1)
		report(b, fig, "conventional", i, fmt.Sprintf("conv-%dx-s", ratio), 1)
	}
}

func BenchmarkFigure15WriteEnhancement(b *testing.B) {
	fig := runExperiment(b, "15", benchScale)
	report(b, fig, "websql/16K", 0, "websql16K-delta-%", 100)
	report(b, fig, "mediaserver/16K", 0, "media16K-delta-%", 100)
}

func BenchmarkFigure16MediaWriteSweep(b *testing.B) {
	fig := runExperiment(b, "16", benchScale)
	for i, ratio := range []int{2, 3, 4, 5} {
		report(b, fig, "ppb", i, fmt.Sprintf("ppb-%dx-s", ratio), 1)
	}
	report(b, fig, "conventional", 0, "conv-2x-s", 1)
}

func BenchmarkFigure17WebWriteSweep(b *testing.B) {
	fig := runExperiment(b, "17", benchScale)
	for i, ratio := range []int{2, 3, 4, 5} {
		report(b, fig, "ppb", i, fmt.Sprintf("ppb-%dx-s", ratio), 1)
	}
	report(b, fig, "conventional", 0, "conv-2x-s", 1)
}

func BenchmarkFigure18EraseCount(b *testing.B) {
	fig := runExperiment(b, "18", benchScale)
	report(b, fig, "websql/conventional", 0, "websql-conv-erases", 1)
	report(b, fig, "websql/ppb", 0, "websql-ppb-erases", 1)
	report(b, fig, "mediaserver/conventional", 0, "media-conv-erases", 1)
	report(b, fig, "mediaserver/ppb", 0, "media-ppb-erases", 1)
}

func BenchmarkMotivationFig3(b *testing.B) {
	fig := runExperiment(b, "3", benchScale)
	report(b, fig, "greedy-speed/copies", 0, "greedy-copies", 1)
	report(b, fig, "hotcold-split/copies", 0, "split-copies", 1)
	report(b, fig, "ppb/copies", 0, "ppb-copies", 1)
}

func BenchmarkAblationSplit(b *testing.B) {
	fig := runExperiment(b, "a1", benchScale)
	for i, k := range []int{2, 4, 8} {
		report(b, fig, "read", i, fmt.Sprintf("k%d-read-s", k), 1)
	}
}

func BenchmarkAblationIdentifier(b *testing.B) {
	fig := runExperiment(b, "a2", benchScale)
	report(b, fig, "size-check", 0, "sizecheck-enh-%", 100)
	report(b, fig, "recency", 0, "recency-enh-%", 100)
}

func BenchmarkAblationLayers(b *testing.B) {
	fig := runExperiment(b, "a3", benchScale)
	for i, layers := range []int{24, 48, 64, 96} {
		report(b, fig, "enhancement", i, fmt.Sprintf("l%d-enh-%%", layers), 100)
	}
}
