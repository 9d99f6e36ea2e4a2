package keycopy_test

import (
	"fmt"
	"runtime"
	"testing"

	"memshield/internal/analysis/checktest"
	"memshield/internal/analysis/keycopy"
)

// fixturePkgs lists every keycopy fixture, for the worker-count check.
var fixturePkgs = []string{
	"keycopybad",             // duplication and long-lived stores
	"keycopyok",              // transient handling stays silent
	"memshield/internal/ssl", // a source package, allowlisted wholesale
	"keycopyflow",            // branch-local taint, joins, loops, closures
	"keycopypts",             // sources reached through function values
	"keycopyinter",           // key bytes handed back by helpers
}

func TestFlagged(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "keycopybad")
}

func TestAllowed(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "keycopyok")
}

// TestSourcePackage loads a fixture under the internal/ssl import path:
// the packages that own key material are allowlisted wholesale.
func TestSourcePackage(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "memshield/internal/ssl")
}

// TestFlowSensitivity pins branch-local taint, join unions, loop back
// edges and closure seeding (the ttyleak false-positive regression).
func TestFlowSensitivity(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "keycopyflow")
}

// TestPointsTo pins source calls through function values — bindings,
// var declarations, struct fields — resolving via the points-to layer.
func TestPointsTo(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "keycopypts")
}

// TestInterprocedural pins key bytes that come back out of a helper —
// a view of the argument, or a fresh copy of it.
func TestInterprocedural(t *testing.T) {
	checktest.Run(t, "testdata", keycopy.Analyzer, "keycopyinter")
}

// TestKeycopyWorkers re-runs every fixture at several worker counts: the
// summaries the analyzers share through the session store must make the
// results independent of scheduling.
func TestKeycopyWorkers(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checktest.RunWorkers(t, "testdata", keycopy.Analyzer, workers, fixturePkgs...)
		})
	}
}
