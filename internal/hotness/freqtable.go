package hotness

// FreqTable is the cold-area tracker of the PPB strategy (Figure 11a): an
// access-frequency table logging the re-access (read) frequency of each
// cold chunk. Chunks whose frequency reaches PromoteAt are cold
// (write-once-read-many, served from fast virtual blocks); the rest are
// icy-cold (write-once-read-few, slow virtual blocks). The paper sorts
// the table and splits it; a fixed threshold is the streaming equivalent
// and keeps lookups O(1).
//
// The table is a dense per-LPN array spanning the logical space: the
// cold area is most of the device and every host read consults the
// table, so it indexes instead of hashing. An entry stores count+1
// (0 = untracked); a table covering every LPN never overflows, so
// counts never age, and they saturate instead of wrapping.
type FreqTable struct {
	promoteAt uint32
	dense     []uint32
}

// NewFreqTable builds a table covering the LPN range [0, span) with the
// given promotion threshold (reads needed to classify a chunk as cold
// rather than icy-cold). promoteAt of 0 defaults to 2. LPNs beyond the
// span read as untracked and are never stored.
func NewFreqTable(span uint64, promoteAt uint32) *FreqTable {
	if promoteAt == 0 {
		promoteAt = 2
	}
	return &FreqTable{promoteAt: promoteAt, dense: make([]uint32, span)}
}

// Level returns the cold-area level of lpn and whether it is tracked.
func (f *FreqTable) Level(lpn uint64) (Level, bool) {
	c, ok := f.get(lpn)
	if !ok {
		return 0, false
	}
	if c >= f.promoteAt {
		return Cold, true
	}
	return IcyCold, true
}

// get returns the read count of lpn and whether it is tracked.
func (f *FreqTable) get(lpn uint64) (uint32, bool) {
	if lpn >= uint64(len(f.dense)) || f.dense[lpn] == 0 {
		return 0, false
	}
	return f.dense[lpn] - 1, true
}

// set stores the read count of lpn, inserting it if untracked.
func (f *FreqTable) set(lpn uint64, c uint32) {
	if lpn >= uint64(len(f.dense)) {
		return
	}
	if c == ^uint32(0) {
		c-- // keep count+1 from wrapping to "untracked"
	}
	f.dense[lpn] = c + 1
}

// OnWrite registers (or refreshes) a cold-area chunk. A rewrite resets
// the read frequency: the chunk is new data at the same address.
func (f *FreqTable) OnWrite(lpn uint64) { f.set(lpn, 0) }

// InsertDemoted admits a chunk demoted from the hot area, seeding its
// frequency at the promotion threshold minus one so one more read
// re-promotes it within the cold area.
func (f *FreqTable) InsertDemoted(lpn uint64) { f.set(lpn, f.promoteAt-1) }

// OnRead logs a re-access and returns the chunk's level afterwards; ok is
// false when the chunk is not cold-area data.
func (f *FreqTable) OnRead(lpn uint64) (Level, bool) {
	c, ok := f.get(lpn)
	if !ok {
		return 0, false
	}
	if c < ^uint32(0) {
		c++
	}
	f.set(lpn, c)
	if c >= f.promoteAt {
		return Cold, true
	}
	return IcyCold, true
}

// ReadCount returns the logged re-access count of lpn (0 if untracked).
func (f *FreqTable) ReadCount(lpn uint64) uint32 {
	c, _ := f.get(lpn)
	return c
}

// Remove forgets lpn.
func (f *FreqTable) Remove(lpn uint64) {
	if lpn < uint64(len(f.dense)) {
		f.dense[lpn] = 0
	}
}
