// Package testonlyfix is the testonly analyzer fixture. Lines that the
// analyzer must flag carry `// want` comments; lines without one assert
// the analyzer stays silent (see internal/analysis/analysistest).
package testonlyfix

import "fmt"

// Source is an interface Counter satisfies: a call through it resolves
// to Source.Next, never to Counter.Next.
type Source interface{ Next() int }

// Counter is read by total below.
type Counter struct{ n int }

// Next is reached only through Source, so its name counts as read.
func (c *Counter) Next() int {
	c.n++
	return c.n
}

// String is reached through fmt, whose interfaces the program never
// names.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// Helper is read by this package's own non-test code.
func Helper() int { return 2 }

// Oracle is read only by a test, and says so.
//
//flashvet:testonly testonlyfix_test.go checks it
func Oracle() bool { return true }

// OnlyTests is read only by testonlyfix_test.go, which the loader skips.
func OnlyTests() int { return 3 } // want `exported func testonlyfix\.OnlyTests has no reader outside tests`

// Orphan lost its only caller; its call to itself does not count.
func Orphan(n int) int { // want `exported func testonlyfix\.Orphan has no reader outside tests`
	if n == 0 {
		return 0
	}
	return Orphan(n - 1)
}

func total() int {
	var s Source = &Counter{}
	return s.Next() + Helper()
}
