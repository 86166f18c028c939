package workload

import "testing"

// drainChecked replays the whole stream asserting every request stays
// inside the generator's logical space.
func drainChecked(t *testing.T, g Generator) int {
	t.Helper()
	n := 0
	for {
		r, ok := g.Next()
		if !ok {
			return n
		}
		n++
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		if r.End() > g.LogicalBytes() {
			t.Fatalf("request %d: [%d, %d) beyond logical space %d",
				n, r.Offset, r.End(), g.LogicalBytes())
		}
	}
}

// TestWebSQLTinyLogicalSpace is the regression test for the uint64
// wraparound: with the 16-page meta/log floors, a logical space smaller
// than 32 DB pages put dataBase past LogicalBytes and dataPages
// underflowed to ~2^64. The clamped regions must keep every request in
// bounds.
func TestWebSQLTinyLogicalSpace(t *testing.T) {
	for _, bytes := range []uint64{
		256 << 10, // 32 x 8K pages: floors alone would claim all of it
		128 << 10, // 16 pages: below a single 16-page floor
		64 << 10,  // 8 pages: scan chunk no longer fits the table region
	} {
		g := NewWebSQL(WebSQLConfig{LogicalBytes: bytes, Requests: 5000, Seed: 3})
		if got := drainChecked(t, g); got != 5000 {
			t.Errorf("%d bytes: emitted %d of 5000", bytes, got)
		}
	}
}

// TestWebSQLRejectsAbsurdSpace: spaces that cannot hold one page per
// region fail fast instead of wrapping offsets.
func TestWebSQLRejectsAbsurdSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("8 KiB logical space should panic")
		}
	}()
	NewWebSQL(WebSQLConfig{LogicalBytes: 8 << 10, Requests: 10, Seed: 1})
}

// TestMediaServerTinyLogicalSpace covers the 1 MiB metadata floor: below
// 2 MiB the floor used to swallow the whole space and the file region
// wrapped around uint64.
func TestMediaServerTinyLogicalSpace(t *testing.T) {
	for _, bytes := range []uint64{
		2 << 20,   // metadata floor exactly half the space
		1 << 20,   // below the floor
		256 << 10, // files shrink below the 256 KiB streaming chunk
	} {
		g := NewMediaServer(MediaConfig{LogicalBytes: bytes, Requests: 5000, Seed: 3})
		if got := drainChecked(t, g); got != 5000 {
			t.Errorf("%d bytes: emitted %d of 5000", bytes, got)
		}
	}
}

func TestMediaServerRejectsAbsurdSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("64 KiB logical space should panic")
		}
	}()
	NewMediaServer(MediaConfig{LogicalBytes: 64 << 10, Requests: 10, Seed: 1})
}
