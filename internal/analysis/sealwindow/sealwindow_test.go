package sealwindow_test

import (
	"fmt"
	"runtime"
	"testing"

	"memshield/internal/analysis/checktest"
	"memshield/internal/analysis/sealwindow"
)

var fixturePkgs = []string{
	"sealwinok",     // clean windows: read/use/wipe inside, local aliases
	"sealwinbad",    // reads outside windows, unscopable callbacks, early aliases
	"sealwinescape", // channel/goroutine/global/return/retainer escapes
	"sealwincopy",   // copy() and copying helpers carry window taint
}

// TestSealwindow runs the fixture table sequentially.
func TestSealwindow(t *testing.T) {
	for _, pkg := range fixturePkgs {
		t.Run(pkg, func(t *testing.T) {
			checktest.Run(t, "testdata", sealwindow.Analyzer, pkg)
		})
	}
}

// TestSealwindowWorkers re-runs the fixtures at several worker counts:
// the session-shared summary cache must make the results independent of
// scheduling (the same invariance contract the figure runner holds).
func TestSealwindowWorkers(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checktest.RunWorkers(t, "testdata", sealwindow.Analyzer, workers, fixturePkgs...)
		})
	}
}
