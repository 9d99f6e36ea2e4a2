package core

import (
	"strings"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

const keyPath = "/etc/ssl/key.pem"

// rig boots a machine with a running SSH server at the level and returns
// the auditor and patterns.
func rig(t *testing.T, level protect.Level, conns int) (*Auditor, []scan.Pattern, *sshd.Server) {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		MemPages:      4096,
		SwapPages:     64,
		DeallocPolicy: level.KernelPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(606), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	if err := k.ScrambleFreeMemory(1); err != nil {
		t.Fatal(err)
	}
	s, err := sshd.Start(k, sshd.Config{KeyPath: keyPath, Level: level, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < conns; i++ {
		if _, err := s.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	return New(k, level), scan.PatternsFor(key), s
}

func TestProtectedLevelsVerifyClean(t *testing.T) {
	for _, level := range []protect.Level{
		protect.LevelApp, protect.LevelLibrary, protect.LevelKernel, protect.LevelIntegrated,
	} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			a, patterns, _ := rig(t, level, 5)
			if err := a.Verify(patterns); err != nil {
				t.Fatalf("deployed level fails its own audit: %v", err)
			}
			rep := a.Audit(patterns)
			if !rep.OK() {
				t.Fatalf("violations: %v", rep.Violations)
			}
			if !strings.Contains(rep.Render(), "all guarantees hold") {
				t.Fatal("render missing verdict")
			}
		})
	}
}

func TestUnprotectedHasNoGuaranteesToViolate(t *testing.T) {
	a, patterns, _ := rig(t, protect.LevelNone, 5)
	// LevelNone promises nothing, so even a flooded machine audits "OK".
	if err := a.Verify(patterns); err != nil {
		t.Fatalf("none-level verify should pass vacuously: %v", err)
	}
	rep := a.Audit(patterns)
	if rep.Summary.Total < 10 {
		t.Fatal("unprotected rig should be flooded")
	}
	if rep.UnlockedKeyCopies == 0 {
		t.Fatal("unprotected copies should be unlocked")
	}
}

func TestAuditDetectsZeroingViolation(t *testing.T) {
	// Claim kernel-level guarantees on a machine that doesn't zero:
	// the audit must call out the unallocated copies.
	a, patterns, s := rig(t, protect.LevelNone, 4)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	liar := New(a.k, protect.LevelKernel)
	err := liar.Verify(patterns)
	if err == nil {
		t.Fatal("audit must detect unallocated copies under a zeroing claim")
	}
	if !strings.Contains(err.Error(), "unallocated") {
		t.Fatalf("unexpected violation text: %v", err)
	}
}

func TestAuditDetectsCopyMinimizationViolation(t *testing.T) {
	// Claim integrated guarantees on an unprotected flooded machine.
	a, patterns, _ := rig(t, protect.LevelNone, 4)
	liar := New(a.k, protect.LevelIntegrated)
	rep := liar.Audit(patterns)
	if rep.OK() {
		t.Fatal("audit must detect violations")
	}
	text := strings.Join(rep.Violations, "\n")
	for _, want := range []string{"copy minimization", "mlocked", "PEM"} {
		if !strings.Contains(text, want) {
			t.Errorf("violations missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(rep.Render(), "VIOLATIONS") {
		t.Fatal("render missing violations section")
	}
}

func TestAuditDetectsSwapViolation(t *testing.T) {
	// An aligned key claim with key material manually forced to swap.
	a, patterns, _ := rig(t, protect.LevelNone, 1)
	// Pressure every process: some key-bearing page lands on swap.
	for _, pid := range a.k.Procs().Live() {
		if _, err := a.k.MemoryPressure(pid, 64); err != nil {
			t.Fatal(err)
		}
	}
	liar := New(a.k, protect.LevelApp)
	rep := liar.Audit(patterns)
	if rep.SwapHits == 0 {
		t.Skip("pressure did not move key pages this run")
	}
	if rep.OK() {
		t.Fatal("swap hits must violate a copy-minimizing claim")
	}
}
