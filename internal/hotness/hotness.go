// Package hotness implements the data-temperature machinery of the PPB
// strategy: the four hotness levels, the first-stage hot/cold identifier
// (the paper's case study uses the request-size check), the two-level LRU
// that splits hot data into iron-hot/hot, and the access-frequency table
// that splits cold data into cold/icy-cold.
//
// The components are deliberately independent of the FTL so that, as the
// paper puts it, PPB "is compatible with any hot/cold data identification
// mechanism": anything satisfying Identifier can drive the first stage.
package hotness

import "fmt"

// Level is one of the paper's four data hotness levels. The order is
// meaningful: higher levels are hotter, and the two levels of each area
// are adjacent.
type Level uint8

// Hotness levels, coldest first.
const (
	IcyCold Level = iota // write-once-read-few (e.g. backups) -> slow pages of cold blocks
	Cold                 // write-once-read-many (e.g. media) -> fast pages of cold blocks
	Hot                  // frequently written, rarely read (e.g. caches) -> slow pages of hot blocks
	IronHot              // frequently read and written (e.g. FS metadata) -> fast pages of hot blocks
)

// String returns the paper's name for the level.
func (l Level) String() string {
	switch l {
	case IcyCold:
		return "icy-cold"
	case Cold:
		return "cold"
	case Hot:
		return "hot"
	case IronHot:
		return "iron-hot"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// HotArea reports whether the level belongs to the hot data area.
func (l Level) HotArea() bool { return l == Hot || l == IronHot }

// Fast reports whether the level is served by the fast virtual block of
// its area (iron-hot in the hot area, cold in the cold area).
func (l Level) Fast() bool { return l == IronHot || l == Cold }

// Valid reports whether l is one of the four defined levels.
func (l Level) Valid() bool { return l <= IronHot }

// Area is the first-stage classification result.
type Area uint8

// Areas.
const (
	AreaCold Area = iota
	AreaHot
)

// String returns "hot" or "cold".
func (a Area) String() string {
	if a == AreaHot {
		return "hot"
	}
	return "cold"
}

// Identifier is the pluggable first-stage hot/cold mechanism. Classify is
// consulted once per host write that is not already tracked by an area.
type Identifier interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Classify assigns a write of the given size (bytes) at the given
	// logical page to an area.
	Classify(lpn uint64, size int) Area
}

// SizeCheck is the paper's case-study identifier: requests smaller than a
// page are metadata-ish and hot, page-sized and larger requests are bulk
// data and cold (Figure 4: "Size Check: <PageSize / >PageSize").
type SizeCheck struct {
	// ThresholdBytes is the page size boundary.
	ThresholdBytes int
}

// Name implements Identifier.
func (s SizeCheck) Name() string { return "size-check" }

// Classify implements Identifier.
func (s SizeCheck) Classify(_ uint64, size int) Area {
	if size < s.ThresholdBytes {
		return AreaHot
	}
	return AreaCold
}

// Recency is an alternative first-stage identifier for ablations: a write
// is hot if its LPN was written within the last Window distinct writes
// (pure temporal locality, no size signal).
type Recency struct {
	slab   lruSlab
	window lruList
}

// NewRecency builds a Recency identifier remembering the given number of
// recently written LPNs.
func NewRecency(window int) *Recency {
	// One list, so its level tag is never read; the index grows with
	// the LPNs seen, bounded by the logical space of the device.
	return &Recency{slab: newLRUSlab(0), window: newLRUList(0, window)}
}

// Name implements Identifier.
func (r *Recency) Name() string { return "recency" }

// Classify implements Identifier.
func (r *Recency) Classify(lpn uint64, _ int) Area {
	if n := r.slab.lookup(lpn); n != nilNode {
		r.slab.touch(&r.window, n)
		return AreaHot
	}
	r.slab.insertFront(&r.window, lpn, 0) // eviction is implicit
	return AreaCold
}

// Static always answers the same area; the degenerate identifier used to
// ablate the first stage away.
type Static struct{ Result Area }

// Name implements Identifier.
func (s Static) Name() string { return "static-" + s.Result.String() }

// Classify implements Identifier.
func (s Static) Classify(uint64, int) Area { return s.Result }
