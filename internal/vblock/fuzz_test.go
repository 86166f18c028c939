package vblock

import (
	"testing"

	"ppbflash/internal/nand"
)

// FuzzManager drives the manager's state machine with an arbitrary call
// sequence and checks CheckInvariants after every step: write points,
// pending queues, free heaps, the full and retired counts and the victim
// index must stay consistent under any interleaving of the lifecycle
// calls, and no call may panic.
//
// The first input byte picks the split factor (1, 2 or 4); every
// following pair of bytes is one call. The op byte selects AllocateFirst,
// OpenPendingGroup, Advance, NoteInvalidated, PickVictim, Release or
// Retire; the argument byte supplies the pool (bit 0), a flag (bit 1:
// the fast group, or for Advance an arbitrary block instead of the
// write point of the group bit 2 names, or for PickVictim full blocks
// only) and a block number (the remaining bits, modulo the block count).
// Each call's outcome is checked too: Advance succeeds exactly on open
// blocks, Release exactly on owned ones, Retire on all but free ones, and
// a victim is never open.
func FuzzManager(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 1, 2, 2, 4, 2, 4, 2, 4, 2, 4, 3, 2, 4, 0, 5, 0},
		{2, 0, 1, 0, 0, 2, 0, 2, 0, 2, 1, 2, 1, 1, 3, 2, 5, 6, 0, 5, 4},
		{0, 0, 0, 0, 1, 3, 2, 3, 6, 4, 2, 5, 2, 0, 0, 6, 2, 5, 6},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := [3]int{1, 2, 4}[int(data[0])%3]
		m, err := NewManager(testConfig(), k, 2)
		if err != nil {
			t.Fatal(err)
		}
		wear := func(b nand.BlockID) uint32 { return uint32(b) % 3 }
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, data[i+1]
			pool, flag := int(arg&1), arg&2 != 0
			b := nand.BlockID(int(arg>>2) % len(m.blocks))
			phase := m.blocks[b].phase
			switch op {
			case 0:
				free := m.FreeBlocks()
				if _, err := m.AllocateFirst(pool); (err == nil) != (free > 0) {
					t.Fatalf("step %d: AllocateFirst with %d free blocks: %v", i, free, err)
				}
			case 1:
				m.OpenPendingGroup(pool, flag)
			case 2:
				if !flag {
					wp, ok := m.Open(pool, arg&4 != 0)
					if !ok {
						break
					}
					b = wp
				}
				open := m.IsOpen(b)
				if _, err := m.Advance(b); (err == nil) != open {
					t.Fatalf("step %d: advance block %d (open %v): %v", i, b, open, err)
				}
			case 3:
				m.NoteInvalidated(b)
			case 4:
				if v, ok := m.PickVictim(flag, wear, int(arg>>2)%3); ok &&
					(m.IsOpen(v) || (flag && m.blocks[v].phase != phaseFull)) {
					t.Fatalf("step %d: victim %d is open or, full-only, not full", i, v)
				}
			case 5:
				owned := phase == phaseOwned || phase == phaseFull
				if err := m.Release(b); (err == nil) != owned {
					t.Fatalf("step %d: release block %d in phase %d: %v", i, b, phase, err)
				}
			case 6:
				if err := m.Retire(b); (err == nil) != (phase != phaseFree) {
					t.Fatalf("step %d: retire block %d in phase %d: %v", i, b, phase, err)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d, arg %#x): %v", i, op, arg, err)
			}
		}
	})
}
