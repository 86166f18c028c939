// Package determfix is the determinism analyzer fixture. Lines that the
// analyzer must flag carry `// want` comments; lines without one assert
// the analyzer stays silent (see internal/analysis/analysistest).
package determfix

import (
	"math/rand"
	"slices"
	"time"
)

var stamp time.Time

func wallClock() {
	stamp = time.Now()    // want `wall clock read \(time\.Now\)`
	_ = time.Since(stamp) // want `wall clock read \(time\.Since\)`
}

func globalRand() int {
	return rand.Intn(6) // want `global math/rand\.Intn draws from the process-wide source`
}

func seededRand() int {
	r := rand.New(rand.NewSource(42)) // constructors are legal
	return r.Intn(6)                  // methods on a seeded *rand.Rand are legal
}

func mapFold(m map[int]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is unordered`
		total += v
	}
	return total
}

func mapFoldSorted(m map[int]int) int {
	keys := make([]int, 0, len(m))
	for k := range m { // sanctioned idiom: collect keys, sort, iterate sorted
		keys = append(keys, k)
	}
	slices.Sort(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func mapReadOnly(m map[int]int) bool {
	for _, v := range m { // loop-local reads only: legal
		if v < 0 {
			return true
		}
	}
	return false
}

func mapSelfDelete(m map[int]int) {
	for k, v := range m { // per-key deletes on the ranged map commute: legal
		if v == 0 {
			delete(m, k)
		}
	}
}
