package protect

import (
	"strings"
	"testing"

	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
)

func TestLevelProperties(t *testing.T) {
	tests := []struct {
		level        Level
		policy       alloc.Policy
		flags        fs.OpenFlag
		alignAtLoad  bool
		appAlign     bool
		noReexec     bool
		minimizes    bool
		zeroesUnallo bool
		evictsPEM    bool
	}{
		{LevelNone, alloc.PolicyRetain, 0, false, false, false, false, false, false},
		{LevelApp, alloc.PolicyRetain, 0, false, true, true, true, false, false},
		{LevelLibrary, alloc.PolicyRetain, 0, true, false, true, true, false, false},
		{LevelKernel, alloc.PolicyZeroOnFree, 0, false, false, false, false, true, false},
		{LevelIntegrated, alloc.PolicyZeroOnFree, fs.ONoCache, true, false, true, true, true, true},
		{LevelSecureDealloc, alloc.PolicySecureDealloc, 0, false, false, false, false, true, false},
		{LevelSealed, alloc.PolicyZeroOnFree, fs.ONoCache, true, false, true, true, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.level.String(), func(t *testing.T) {
			if got := tt.level.KernelPolicy(); got != tt.policy {
				t.Errorf("KernelPolicy = %v, want %v", got, tt.policy)
			}
			if got := tt.level.OpenFlags(); got != tt.flags {
				t.Errorf("OpenFlags = %v, want %v", got, tt.flags)
			}
			if got := tt.level.AlignAtLoad(); got != tt.alignAtLoad {
				t.Errorf("AlignAtLoad = %v", got)
			}
			if got := tt.level.AppAlign(); got != tt.appAlign {
				t.Errorf("AppAlign = %v", got)
			}
			if got := tt.level.NoReexec(); got != tt.noReexec {
				t.Errorf("NoReexec = %v", got)
			}
			if got := tt.level.MinimizesCopies(); got != tt.minimizes {
				t.Errorf("MinimizesCopies = %v", got)
			}
			if got := tt.level.ZeroesUnallocated(); got != tt.zeroesUnallo {
				t.Errorf("ZeroesUnallocated = %v", got)
			}
			if got := tt.level.EvictsPEM(); got != tt.evictsPEM {
				t.Errorf("EvictsPEM = %v", got)
			}
			if !tt.level.Valid() {
				t.Error("level should be valid")
			}
		})
	}
}

func TestAllCoversEveryLevel(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() = %d levels, want 7", len(all))
	}
	seen := make(map[Level]bool)
	for _, l := range all {
		if seen[l] {
			t.Fatalf("duplicate level %v", l)
		}
		seen[l] = true
		if l.String() == "" {
			t.Fatalf("level %d has empty name", l)
		}
	}
}

func TestInvalidLevel(t *testing.T) {
	if Level(0).Valid() || Level(99).Valid() {
		t.Fatal("invalid levels must not validate")
	}
	if Level(99).String() == "" {
		t.Fatal("unknown level should still format")
	}
}

func TestParseLevel(t *testing.T) {
	for _, l := range All() {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	_, err := ParseLevel("bogus")
	if err == nil {
		t.Fatal("bogus level should error")
	}
	for _, l := range All() {
		if !strings.Contains(err.Error(), l.String()) {
			t.Errorf("error %q does not list level %q", err, l)
		}
	}
}
