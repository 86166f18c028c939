package workload

import (
	"testing"

	"ppbflash/internal/trace"
)

func TestMediaServerDeterministic(t *testing.T) {
	cfg := MediaConfig{LogicalBytes: 64 << 20, Requests: 5000, Seed: 42}
	a := collect(NewMediaServer(cfg))
	b := collect(NewMediaServer(cfg))
	if len(a) != 5000 {
		t.Fatalf("got %d requests, want 5000", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(NewMediaServer(MediaConfig{LogicalBytes: 64 << 20, Requests: 5000, Seed: 43}))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestMediaServerShape(t *testing.T) {
	g := NewMediaServer(MediaConfig{LogicalBytes: 256 << 20, Requests: 50_000, Seed: 7})
	reqs := collect(g)
	s := summarize(reqs)
	if got := s.ReadRatio(); got < 0.80 || got > 0.90 {
		t.Errorf("read ratio = %v, want ~0.85 (read-dominated media server)", got)
	}
	if s.MaxEnd > g.LogicalBytes() {
		t.Errorf("request beyond logical space: %d > %d", s.MaxEnd, g.LogicalBytes())
	}
	// Media-server writes must be dominated by large ingest; but the
	// metadata region sees small (<16K) writes too.
	if s.SmallWrites == 0 {
		t.Error("expected some small metadata writes")
	}
	if float64(s.SmallWrites) > 0.5*float64(s.Writes) {
		t.Errorf("small writes = %d of %d, want bulk-ingest dominated", s.SmallWrites, s.Writes)
	}
	if s.WriteBytes == 0 || s.ReadBytes < 4*s.WriteBytes {
		t.Errorf("bytes read %d vs written %d: media server should read much more", s.ReadBytes, s.WriteBytes)
	}
}

func TestMediaServerPopularitySkew(t *testing.T) {
	lb := uint64(256 << 20)
	g := NewMediaServer(MediaConfig{LogicalBytes: lb, Requests: 60_000, Seed: 3})
	// Count read bytes per file-region half: the Zipf head (low file
	// indices) must absorb most streaming reads.
	var lowHalf, highHalf uint64
	mid := g.fileBase + (lb-g.fileBase)/2
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Op != trace.OpRead || r.Offset < g.fileBase {
			continue
		}
		if r.Offset < mid {
			lowHalf += uint64(r.Size)
		} else {
			highHalf += uint64(r.Size)
		}
	}
	if lowHalf < 3*highHalf {
		t.Errorf("popularity skew too weak: low-half bytes %d vs high-half %d", lowHalf, highHalf)
	}
}

func TestMediaServerStreamsAreSequential(t *testing.T) {
	g := NewMediaServer(MediaConfig{LogicalBytes: 128 << 20, Requests: 20_000, Seed: 5})
	reqs := collect(g)
	sequential := 0
	var prev *trace.Request
	for i := range reqs {
		r := &reqs[i]
		if r.Op != trace.OpRead || r.Size < 8192 {
			prev = nil
			continue
		}
		if prev != nil && prev.End() == r.Offset {
			sequential++
		}
		prev = r
	}
	if sequential < len(reqs)/10 {
		t.Errorf("only %d sequential read continuations in %d requests", sequential, len(reqs))
	}
}

func TestWebSQLDeterministicAndShape(t *testing.T) {
	cfg := WebSQLConfig{LogicalBytes: 256 << 20, Requests: 50_000, Seed: 11}
	a := collect(NewWebSQL(cfg))
	b := collect(NewWebSQL(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	s := summarize(a)
	if got := s.ReadRatio(); got < 0.55 || got > 0.65 {
		t.Errorf("read ratio = %v, want ~0.60", got)
	}
	if s.MaxEnd > cfg.LogicalBytes {
		t.Errorf("request beyond logical space: %d", s.MaxEnd)
	}
	// Web/SQL writes are dominated by small DB pages and log appends.
	if float64(s.SmallWrites) < 0.9*float64(s.Writes) {
		t.Errorf("small writes = %d of %d, want nearly all below 16K", s.SmallWrites, s.Writes)
	}
}

func TestWebSQLReaccessSkew(t *testing.T) {
	cfg := WebSQLConfig{LogicalBytes: 256 << 20, Requests: 80_000, Seed: 13}
	g := NewWebSQL(cfg)
	counts := make(map[uint64]int)
	reads := 0
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Op != trace.OpRead || r.Size > 16<<10 {
			continue
		}
		counts[r.Offset]++
		reads++
	}
	// The hottest 1% of read offsets should absorb a large share of reads.
	hot := 0
	for _, c := range counts {
		if c >= 10 {
			hot += c
		}
	}
	if float64(hot) < 0.2*float64(reads) {
		t.Errorf("re-access skew too weak: %d of %d reads on offsets seen 10+ times", hot, reads)
	}
}

func TestWebSQLLogAppendsAreSequentialAndWrap(t *testing.T) {
	cfg := WebSQLConfig{LogicalBytes: 32 << 20, Requests: 60_000, Seed: 17}
	g := NewWebSQL(cfg)
	var logWrites []trace.Request
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		if r.Op == trace.OpWrite && r.Offset >= g.logBase && r.Offset < g.dataBase {
			logWrites = append(logWrites, r)
		}
	}
	if len(logWrites) == 0 {
		t.Fatal("no log writes generated")
	}
	sequential, wraps := 0, 0
	for i := 1; i < len(logWrites); i++ {
		if logWrites[i-1].End() == logWrites[i].Offset {
			sequential++
		}
		if logWrites[i].Offset < logWrites[i-1].Offset {
			wraps++
		}
	}
	if sequential < len(logWrites)*8/10 {
		t.Errorf("log appends not sequential: %d of %d", sequential, len(logWrites))
	}
	if wraps == 0 {
		t.Error("log never wrapped in a small region; wrap logic untested")
	}
}

func TestWebSQLRegionsDisjoint(t *testing.T) {
	g := NewWebSQL(WebSQLConfig{LogicalBytes: 64 << 20, Requests: 1})
	if !(g.metaBytes <= g.logBase && g.logBase < g.dataBase && g.dataBase < g.cfg.LogicalBytes) {
		t.Errorf("regions out of order: meta=%d log=%d data=%d", g.metaBytes, g.logBase, g.dataBase)
	}
	if g.dataPages == 0 {
		t.Error("no data pages")
	}
}

func TestUniformControl(t *testing.T) {
	cfg := UniformConfig{LogicalBytes: 16 << 20, Requests: 20_000, Seed: 9, ReadFraction: 0.5}
	g := NewUniform(cfg)
	reqs := collect(g)
	s := summarize(reqs)
	if len(reqs) != cfg.Requests {
		t.Fatalf("len = %d", len(reqs))
	}
	if got := s.ReadRatio(); got < 0.45 || got > 0.55 {
		t.Errorf("read ratio = %v", got)
	}
	if s.MaxEnd > cfg.LogicalBytes {
		t.Errorf("beyond logical space: %d", s.MaxEnd)
	}
	for _, r := range reqs[:100] {
		if r.Size != 4<<10 {
			t.Fatalf("size = %d", r.Size)
		}
		if r.Offset%uint64(r.Size) != 0 {
			t.Fatalf("unaligned offset %d", r.Offset)
		}
	}
}

func TestFuncAdapter(t *testing.T) {
	n := 0
	f := &Func{WorkloadName: "three", Bytes: 99, NextFunc: func() (trace.Request, bool) {
		if n == 3 {
			return trace.Request{}, false
		}
		n++
		return trace.Request{Op: trace.OpWrite, Offset: uint64(n), Size: 1}, true
	}}
	if f.Name() != "three" || f.LogicalBytes() != 99 {
		t.Error("metadata passthrough broken")
	}
	if got := len(collect(f)); got != 3 {
		t.Errorf("collected %d", got)
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty domain": func() { newZipf(nil, 1.5, 0) },
		"bad skew":     func() { newZipf(nil, 1.0, 10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		})
	}
}

func TestGeneratorsRespectLogicalBounds(t *testing.T) {
	gens := []Generator{
		NewMediaServer(MediaConfig{LogicalBytes: 32 << 20, Requests: 30_000, Seed: 2}),
		NewWebSQL(WebSQLConfig{LogicalBytes: 32 << 20, Requests: 30_000, Seed: 2}),
		NewUniform(UniformConfig{LogicalBytes: 32 << 20, Requests: 30_000, Seed: 2}),
	}
	for _, g := range gens {
		t.Run(g.Name(), func(t *testing.T) {
			for {
				r, ok := g.Next()
				if !ok {
					break
				}
				if err := r.Validate(); err != nil {
					t.Fatal(err)
				}
				if r.End() > g.LogicalBytes() {
					t.Fatalf("request [%d,%d) beyond %d", r.Offset, r.End(), g.LogicalBytes())
				}
			}
		})
	}
}

// TestGeneratorsTagHotStreams: both paper traces annotate their
// hot-stream requests (metadata, index/catalog, redo log) with the
// advisory Request.Hot tag — a meaningful but minority share — and every
// tagged request falls inside the generator's hot regions. The tag is
// the placement ground truth dispatch/affinity experiments and
// identifier tests compare against.
func TestGeneratorsTagHotStreams(t *testing.T) {
	t.Run("websql", func(t *testing.T) {
		w := NewWebSQL(WebSQLConfig{LogicalBytes: 64 << 20, Requests: 20000, Seed: 11})
		reqs := collect(w)
		st := summarize(reqs)
		if st.HotTagged == 0 {
			t.Fatal("websql tagged no hot-stream requests")
		}
		if st.HotTagged >= st.Requests/2 {
			t.Errorf("websql tagged %d of %d requests hot; the hot stream must be a minority", st.HotTagged, st.Requests)
		}
		for i, r := range reqs {
			if r.Hot && r.End() > w.dataBase {
				t.Fatalf("request %d tagged hot but outside meta/log regions: %+v (dataBase %d)", i, r, w.dataBase)
			}
		}
	})
	t.Run("mediaserver", func(t *testing.T) {
		m := NewMediaServer(MediaConfig{LogicalBytes: 64 << 20, Requests: 20000, Seed: 11})
		reqs := collect(m)
		st := summarize(reqs)
		if st.HotTagged == 0 {
			t.Fatal("mediaserver tagged no hot-stream requests")
		}
		if st.HotTagged >= st.Requests/2 {
			t.Errorf("mediaserver tagged %d of %d requests hot; the hot stream must be a minority", st.HotTagged, st.Requests)
		}
		for i, r := range reqs {
			if r.Hot && r.End() > m.fileBase {
				t.Fatalf("request %d tagged hot but outside the metadata region: %+v (fileBase %d)", i, r, m.fileBase)
			}
		}
	})
}

// collect drains a generator into a slice.
func collect(g Generator) []trace.Request {
	var out []trace.Request
	for r, ok := g.Next(); ok; r, ok = g.Next() {
		out = append(out, r)
	}
	return out
}

// summarize folds requests into trace.Stats.
func summarize(reqs []trace.Request) trace.Stats {
	var s trace.Stats
	for _, r := range reqs {
		s.Observe(r)
	}
	return s
}
