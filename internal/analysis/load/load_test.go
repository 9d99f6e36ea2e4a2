package load_test

import (
	"go/constant"
	"go/types"
	"strings"
	"testing"

	"memshield/internal/analysis/load"
)

// TestLoadModulePackage type-checks a real module package, resolving its
// module-local and stdlib imports from source.
func TestLoadModulePackage(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	res, err := cfg.Load("./internal/scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(res.Pkgs))
	}
	pkg := res.Pkgs[0]
	if pkg.PkgPath != "memshield/internal/scan" {
		t.Errorf("PkgPath = %q", pkg.PkgPath)
	}
	if pkg.Types.Scope().Lookup("Scanner") == nil {
		t.Error("type Scanner not found in checked package")
	}
	if res.Fset == nil || len(pkg.Files) == 0 {
		t.Error("missing fset or files")
	}
}

// TestLoadWithTests returns the augmented in-package variant and the
// external test package.
func TestLoadWithTests(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root, Tests: true}
	res, err := cfg.Load("./internal/mem")
	if err != nil {
		t.Fatal(err)
	}
	var sawTestFile bool
	for _, pkg := range res.Pkgs {
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				sawTestFile = true
			}
		}
	}
	if !sawTestFile {
		t.Error("Tests:true loaded no test files")
	}
}

// TestRecursivePattern expands ./... without descending into testdata.
func TestRecursivePattern(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	res, err := cfg.Load("./internal/analysis/...")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pkg := range res.Pkgs {
		seen[pkg.PkgPath] = true
		if strings.Contains(pkg.PkgPath, "testdata") {
			t.Errorf("descended into testdata: %s", pkg.PkgPath)
		}
	}
	for _, want := range []string{
		"memshield/internal/analysis",
		"memshield/internal/analysis/detrand",
		"memshield/internal/analysis/load",
	} {
		if !seen[want] {
			t.Errorf("missing package %s (got %v)", want, seen)
		}
	}
}

// TestSourceMarkers checks the //memlint:source protocol: loading the
// packages that declare key-material APIs populates Result.Sources with
// their full go/types names and tainted-result indexes.
func TestSourceMarkers(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	res, err := cfg.Load("./internal/crypto/rsakey", "./internal/crypto/pemfile", "./internal/ssl")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"(*memshield/internal/crypto/rsakey.PrivateKey).MarshalDER": 0,
		"(*memshield/internal/crypto/rsakey.PrivateKey).MarshalPEM": 0,
		"memshield/internal/crypto/pemfile.Decode":                  1,
		"(*memshield/internal/ssl.BigNum).Bytes":                    0,
	}
	for name, idx := range want {
		got, ok := res.Sources[name]
		if !ok {
			t.Errorf("marker missing for %s", name)
		} else if got != idx {
			t.Errorf("%s: result index = %d, want %d", name, got, idx)
		}
	}
}

// TestSessionCache pins the type-info cache: two Loads with the same
// configuration share one session, so the second returns the identical
// memoized package (and FileSet) instead of re-type-checking the chain.
func TestSessionCache(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	first, err := cfg.Load("./internal/scan")
	if err != nil {
		t.Fatal(err)
	}
	second, err := cfg.Load("./internal/scan")
	if err != nil {
		t.Fatal(err)
	}
	if first.Fset != second.Fset {
		t.Error("second Load built a new FileSet: session not shared")
	}
	if first.Pkgs[0] != second.Pkgs[0] {
		t.Error("second Load re-type-checked ./internal/scan: memo not shared")
	}
}

// TestSinkMarkers checks the //memlint:sink protocol: loading the scrub
// package populates Result.Sinks with the zeroized-parameter index.
func TestSinkMarkers(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	res, err := cfg.Load("./internal/scrub")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := res.Sinks["memshield/internal/scrub.Bytes"]
	if !ok {
		t.Fatal("sink marker missing for scrub.Bytes")
	}
	if idx != 0 {
		t.Errorf("scrub.Bytes zeroized param = %d, want 0", idx)
	}
}

// TestWindowMarkers checks the //memlint:window protocol: loading the
// seal package populates Result.Windows with the callback index.
func TestWindowMarkers(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root}
	res, err := cfg.Load("./internal/crypto/seal")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := res.Windows["(*memshield/internal/crypto/seal.Region).WithOpen"]
	if !ok {
		t.Fatal("window marker missing for (*seal.Region).WithOpen")
	}
	if idx != 0 {
		t.Errorf("WithOpen callback param = %d, want 0", idx)
	}
}

// TestMarkerValidation checks malformed markers fail the load with a
// diagnostic naming the offending function, instead of silently
// weakening the analyzers' fact tables.
func TestMarkerValidation(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pkg     string
		wantErr string
	}{
		{"badsinkidx", "function has 1 parameter"},
		{"badsinktype", "is not a byte slice"},
		{"badsourcetype", "is not a byte slice"},
		{"badwindowidx", "function has 1 parameter"},
		{"badwindowtype", "is not a function"},
	}
	for _, tc := range cases {
		t.Run(tc.pkg, func(t *testing.T) {
			cfg := load.Config{ModuleRoot: root, FixtureRoot: "testdata"}
			_, err := cfg.Load(tc.pkg)
			if err == nil {
				t.Fatalf("loading %s succeeded, want marker validation error", tc.pkg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBuildConstraints loads a package that declares one name in two files
// under opposite build constraints: only the file the go command builds is
// type-checked.
func TestBuildConstraints(t *testing.T) {
	root, err := load.FindModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := load.Config{ModuleRoot: root, FixtureRoot: "testdata"}
	res, err := cfg.Load("buildtags")
	if err != nil {
		t.Fatal(err)
	}
	side, _ := res.Pkgs[0].Types.Scope().Lookup("Side").(*types.Const)
	if side == nil || constant.StringVal(side.Val()) != "on" {
		t.Fatalf("Side = %v, want the constant from on.go", side)
	}
}
