package ftl

import "fmt"

// WearPolicy selects the wear-leveling strategy layered on garbage
// collection, next to the chip-dispatch knob (Options.Dispatch). Wear
// leveling trades a bounded amount of extra GC work for a flatter
// per-block erase distribution, which under the reliability model
// (Options.Reliability) directly delays P/E-limit block retirement —
// the lifetime axis of experiment a9.
type WearPolicy uint8

const (
	// WearNone is the default: plain greedy victim selection, with wear
	// only breaking ties among equally-invalid candidates (the historic
	// behavior — bit-identical to builds before the knob existed).
	WearNone WearPolicy = iota
	// WearAware relaxes greedy victim selection: any block within
	// wearWindow invalid-count buckets of the top (an eighth of a block)
	// is eligible and the least-worn one wins (dynamic wear leveling). It
	// only acts on blocks that already have invalid pages, so write-once
	// cold blocks are never disturbed.
	WearAware
	// WearThresholdSwap adds static wear leveling: when the spread
	// between the device's highest erase count and the least-worn full
	// block reaches wearThreshold (8 erases), GC additionally collects
	// that cold block (even if fully valid), moving its data so the
	// under-worn block rejoins circulation.
	WearThresholdSwap
)

// String returns the name WearByName accepts.
func (w WearPolicy) String() string {
	switch w {
	case WearAware:
		return "wear-aware"
	case WearThresholdSwap:
		return "threshold-swap"
	default:
		return "none"
	}
}

// WearByName resolves a wear policy from its name — the spelling
// flashsim -wear accepts. The empty string means the default (none).
func WearByName(name string) (WearPolicy, error) {
	switch name {
	case "", "none":
		return WearNone, nil
	case "wear-aware":
		return WearAware, nil
	case "threshold-swap":
		return WearThresholdSwap, nil
	default:
		return WearNone, fmt.Errorf("ftl: unknown wear policy %q (want none, wear-aware or threshold-swap)", name)
	}
}
