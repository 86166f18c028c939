package vblock

import (
	"fmt"
	"time"
)

// ChipClock is the per-chip service-clock view the clock-aware dispatch
// policies consult: ChipFree reports when the chip finishes its queued
// device work. nand.Device satisfies it.
type ChipClock interface {
	ChipFree(chip int) time.Duration
}

// DispatchPolicy selects the chip a fresh physical block is allocated
// from. The manager consults it on every AllocateFirst — host writes, GC
// relocations and hot/cold stream pipelines alike — so the policy decides
// where every write stream lands on a multi-chip device. With a single
// chip every policy degenerates to plain lowest-numbered-first order.
type DispatchPolicy uint8

const (
	// Striped is the default: consecutive allocations rotate round-robin
	// across the chips (channel striping), lowest-numbered free block
	// first within each chip, skipping drained chips. It is the exact
	// allocation order the manager used before dispatch policies
	// existed — bit-identical at any chip count.
	Striped DispatchPolicy = iota
	// LeastLoaded allocates each fresh block on the chip whose service
	// clock frees earliest (ties to the lowest chip index), so a new
	// write stream opens where the device is idle instead of rotating
	// blindly onto a chip still draining a GC burst.
	LeastLoaded
	// HotColdAffinity pins hot-stream pools (marked by the FTL through
	// MarkHotPools) to the first half of the chips (at least one) and
	// routes every other pool to the rest, so cold and GC traffic does
	// not queue behind hot host writes on the same chip. Within each
	// subset the earliest-free chip wins; on a multi-tenant manager the
	// subset is further sliced per tenant. A drained slice or subset
	// widens — to the subset, then to all chips — rather than stranding
	// free space.
	HotColdAffinity
	// TenantPartition carves the chips into contiguous per-tenant ranges
	// — tenant t of n owns [t*chips/n, (t+1)*chips/n) — and dispatches
	// every allocation the active tenant triggers (host writes and the GC
	// they cascade into) onto that tenant's own chips, the hard-isolation
	// answer to "does tenant A's GC wreck tenant B's read p99?". Within
	// the partition the earliest-free chip wins; a drained partition
	// widens to all chips rather than failing. With fewer than two
	// tenants declared (or one chip) it behaves exactly like LeastLoaded.
	TenantPartition
)

// String returns the name DispatchByName accepts.
func (p DispatchPolicy) String() string {
	switch p {
	case Striped:
		return "striped"
	case LeastLoaded:
		return "least-loaded"
	case HotColdAffinity:
		return "hotcold-affinity"
	case TenantPartition:
		return "tenant-partition"
	default:
		return fmt.Sprintf("DispatchPolicy(%d)", uint8(p))
	}
}

// pickChip returns the chip serving the pool's next fresh block under
// the active policy, or -1 when every chip's free pool is drained.
func (m *Manager) pickChip(pool int) int {
	chips := len(m.free)
	switch m.policy {
	case HotColdAffinity:
		hot := max(chips/2, 1)
		lo, hi := 0, hot
		if !m.hotPool[pool] {
			lo, hi = hot, chips
		}
		if lo >= hi { // one chip: no cold subset
			lo, hi = 0, chips
		}
		if m.tenants > 1 && hi-lo > 1 {
			tlo, thi := tenantRange(lo, hi, m.activeTenant(), m.tenants)
			if chip := m.leastLoadedIn(tlo, thi); chip >= 0 {
				return chip
			}
		}
		if chip := m.leastLoadedIn(lo, hi); chip >= 0 {
			return chip
		}
		return m.leastLoadedIn(0, chips) // subset drained: widen
	case TenantPartition:
		if m.tenants > 1 && chips > 1 {
			lo, hi := tenantRange(0, chips, m.activeTenant(), m.tenants)
			if chip := m.leastLoadedIn(lo, hi); chip >= 0 {
				return chip
			}
			return m.leastLoadedIn(0, chips) // partition drained: widen
		}
		fallthrough // single tenant or single chip: least-loaded
	case LeastLoaded:
		return m.leastLoadedIn(0, chips)
	}
	// Striped. The rotation is bounded to one full lap, so drained pools
	// yield -1 instead of a spin.
	for i := 0; i < chips; i++ {
		chip := (m.nextChip + i) % chips
		if m.free[chip].Len() > 0 {
			m.nextChip = (chip + 1) % chips
			return chip
		}
	}
	return -1
}

// tenantRange slices [lo, hi) into n contiguous tenant shares and
// returns tenant t's, always at least one chip wide: with more tenants
// than chips, neighbors share.
func tenantRange(lo, hi, t, n int) (int, int) {
	span := hi - lo
	tlo := lo + t*span/n
	thi := lo + (t+1)*span/n
	if thi <= tlo {
		thi = tlo + 1
	}
	if thi > hi {
		thi = hi
	}
	if tlo >= hi {
		tlo = hi - 1
	}
	return tlo, thi
}

// leastLoadedIn returns the chip in [lo, hi) with free blocks whose
// service clock frees earliest, ties to the lowest index. Returns -1
// when every chip of the range is drained.
func (m *Manager) leastLoadedIn(lo, hi int) int {
	best := -1
	var bestFree time.Duration
	for c := lo; c < hi; c++ {
		if m.free[c].Len() == 0 {
			continue
		}
		if f := m.clock.ChipFree(c); best < 0 || f < bestFree {
			best, bestFree = c, f
		}
	}
	return best
}

// DispatchPolicyNames lists the built-in policies in presentation order.
var DispatchPolicyNames = []string{Striped.String(), LeastLoaded.String(), HotColdAffinity.String(), TenantPartition.String()}

// DispatchByName resolves a dispatch policy from its name (the spelling
// flashsim -dispatch accepts). The empty string means the default
// (striped), and "hotcold" is shorthand for hotcold-affinity.
func DispatchByName(name string) (DispatchPolicy, error) {
	switch name {
	case "", "striped":
		return Striped, nil
	case "least-loaded":
		return LeastLoaded, nil
	case "hotcold-affinity", "hotcold":
		return HotColdAffinity, nil
	case "tenant-partition":
		return TenantPartition, nil
	default:
		return Striped, fmt.Errorf("vblock: unknown dispatch policy %q (want striped, least-loaded, hotcold-affinity or tenant-partition)", name)
	}
}
