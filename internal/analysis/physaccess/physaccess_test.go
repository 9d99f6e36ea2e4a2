package physaccess_test

import (
	"testing"

	"memshield/internal/analysis/checktest"
	"memshield/internal/analysis/physaccess"
)

func TestFlagged(t *testing.T) {
	checktest.Run(t, "testdata", physaccess.Analyzer, "physbad")
}

// TestDisclosurePackage checks the read-allowlist (fixture under the
// internal/attack/ prefix) and that writes stay flagged inside it.
func TestDisclosurePackage(t *testing.T) {
	checktest.Run(t, "testdata", physaccess.Analyzer, "memshield/internal/attack/fakeleak")
}

// TestFlowSensitivity pins the ttyleak wrap-around regression: view taint
// is branch-local, with a may-union past the join.
func TestFlowSensitivity(t *testing.T) {
	checktest.Run(t, "testdata", physaccess.Analyzer, "memshield/internal/attack/stitchleak")
}

// TestViewEscapes checks the third rule: in a package allowed to take
// views, every way a view can leave the function that took it is flagged,
// and reading, copying out and passing down are not.
func TestViewEscapes(t *testing.T) {
	checktest.Run(t, "testdata", physaccess.Analyzer, "memshield/internal/attack/escapeleak")
}
