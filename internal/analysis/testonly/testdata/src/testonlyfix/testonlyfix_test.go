package testonlyfix

import "testing"

func TestReaders(t *testing.T) {
	if OnlyTests() != 3 || !Oracle() {
		t.Fatal("fixture values changed")
	}
}
