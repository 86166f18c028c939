package testonly_test

import (
	"path/filepath"
	"testing"

	"ppbflash/internal/analysis/analysistest"
	"ppbflash/internal/analysis/testonly"
)

func TestTestonlyFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "src", "testonlyfix"), testonly.New("testonlyfix"))
}
