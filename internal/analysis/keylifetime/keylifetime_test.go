package keylifetime_test

import (
	"fmt"
	"runtime"
	"testing"

	"memshield/internal/analysis/checktest"
	"memshield/internal/analysis/keylifetime"
)

var fixturePkgs = []string{
	"keylifebad",   // intraprocedural leaks: missed paths, _, anonymous use
	"keylifeok",    // clean releases: sink, clear, defer, closure, alias, return
	"keylifeinter", // interprocedural: chains, recursion, method values, closures
	"keylifefield", // field-sensitive: struct members, slice elements
	"keylifebig",   // math/big: *big.Int obligations, Bytes()-derived buffers
	"keylifego",    // goroutines and channels: spawned closures, send transfer
	"keylifepts",   // points-to: function values via var decls, struct fields
	"keylifemap",   // path-language edges: map entries, derefs, deep fields
	"keylifecopy",  // copy(): copying helpers, integers parsed out of DER
}

// TestKeylifetime runs the fixture table: each package pairs leaking
// variants (with // want expectations) against clean counterparts that
// must stay silent.
func TestKeylifetime(t *testing.T) {
	for _, pkg := range fixturePkgs {
		t.Run(pkg, func(t *testing.T) {
			checktest.Run(t, "testdata", keylifetime.Analyzer, pkg)
		})
	}
}

// TestKeylifetimeWorkers re-runs the fixtures at several worker counts:
// the summaries the analyzers share through the session store must make
// the results independent of scheduling.
func TestKeylifetimeWorkers(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checktest.RunWorkers(t, "testdata", keylifetime.Analyzer, workers, fixturePkgs...)
		})
	}
}
