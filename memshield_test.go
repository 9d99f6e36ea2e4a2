package memshield

import (
	"bytes"
	"strings"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/stats"
)

func TestMachineLifecycleAndScan(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Protection() != ProtectionNone {
		t.Fatal("default protection wrong")
	}
	key, err := m.InstallKey("/etc/ssh/host.key", 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Scan(key); got.Total != 0 {
		t.Fatalf("clean machine scan = %d", got.Total)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Connect(); err != nil {
		t.Fatal(err)
	}
	sum := m.Scan(key)
	if sum.Total == 0 || sum.Allocated == 0 {
		t.Fatalf("scan after traffic = %+v", sum)
	}
	matches := m.ScanMatches(key)
	if len(matches) != sum.Total {
		t.Fatal("matches/summary mismatch")
	}
}

func TestAttacksThroughFacade(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Disconnect(id); err != nil {
		t.Fatal(err)
	}
	ext2, err := m.RunExt2Attack(key, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !ext2.Success {
		t.Fatal("ext2 attack on unprotected machine should succeed")
	}
	tty, err := m.RunTTYAttack(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tty.Size == 0 {
		t.Fatal("tty attack produced no dump")
	}
}

func TestProtectedMachineThroughFacade(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 3, Protection: ProtectionIntegrated})
	if err != nil {
		t.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.StartApache(ProtectionIntegrated, key.Path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	sum := m.Scan(key)
	if sum.Total != 3 || sum.Unallocated != 0 {
		t.Fatalf("integrated scan = %+v, want exactly the aligned d/p/q", sum)
	}
	ext2, err := m.RunExt2Attack(key, 400)
	if err != nil {
		t.Fatal(err)
	}
	if ext2.Success {
		t.Fatal("ext2 attack must fail against the integrated solution")
	}
}

func TestRunFigureFacade(t *testing.T) {
	out, err := RunFigure("fig15", FigureConfig{Seed: 5, Scale: 0.1, MemPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OpenSSH") {
		t.Fatal("figure output missing title")
	}
	if len(FigureIDs()) == 0 {
		t.Fatal("no figure IDs")
	}
	if _, err := RunFigure("bogus", FigureConfig{}); err == nil {
		t.Fatal("bogus figure should error")
	}
}

func TestMachineBadConfig(t *testing.T) {
	if _, err := NewMachine(MachineConfig{MemoryMB: -5}); err == nil {
		t.Fatal("negative memory should error")
	}
}

func TestHSMFacade(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 9, Protection: ProtectionIntegrated})
	if err != nil {
		t.Fatal(err)
	}
	key, slot, err := m.ProvisionHSMKey(512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.StartSSHWithHSM(slot)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Scan(key); got.Total != 0 {
		t.Fatalf("HSM machine holds %d key copies, want 0", got.Total)
	}
	full, err := m.RunTTYAttackFraction(key, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Success {
		t.Fatal("full dump against HSM-backed server must fail")
	}
}

// TestEachKeyCallGetsItsOwnKey: a second InstallKey or ProvisionHSMKey
// on one machine returns a new key, and the first call's key is still
// the one seed+100 (or seed+200) generates.
func TestEachKeyCallGetsItsOwnKey(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base int64
		call func() (*Key, error)
	}{
		{"InstallKey", 100, func() (*Key, error) { return m.InstallKey("/k.pem", 512) }},
		{"ProvisionHSMKey", 200, func() (*Key, error) {
			key, _, err := m.ProvisionHSMKey(512)
			return key, err
		}},
	} {
		first, err := tc.call()
		if err != nil {
			t.Fatal(err)
		}
		second, err := tc.call()
		if err != nil {
			t.Fatal(err)
		}
		if first.Private.N.Cmp(second.Private.N) == 0 {
			t.Errorf("%s: two calls returned the same modulus", tc.name)
		}
		want, err := rsakey.Generate(stats.NewReader(9+tc.base), 512)
		if err != nil {
			t.Fatal(err)
		}
		if first.Private.N.Cmp(want.N) != 0 {
			t.Errorf("%s: first call's key moved off its seed+%d stream", tc.name, tc.base)
		}
	}
}

func TestAuditFacade(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 13, Protection: ProtectionIntegrated})
	if err != nil {
		t.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionIntegrated, key.Path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.VerifyProtection(key); err != nil {
		t.Fatalf("integrated machine fails audit: %v", err)
	}
	rep := m.Audit(key)
	if !rep.OK() || rep.Summary.Total != 3 {
		t.Fatalf("audit = %+v", rep)
	}
}

// DumpMemory returns the caller's own copy: a write on the machine after
// the capture leaves the capture as it was.
func TestDumpMemoryIsACopy(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 8, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	image := m.DumpMemory()
	if len(image) != m.Kernel().Mem().Size() {
		t.Fatalf("capture is %d bytes, want %d", len(image), m.Kernel().Mem().Size())
	}
	want := bytes.Clone(image[:64])
	later := make([]byte, len(want))
	for i, b := range want {
		later[i] = ^b
	}
	if err := m.Kernel().Mem().Write(0, later); err != nil {
		t.Fatal(err)
	}
	if now, _ := m.Kernel().Mem().Read(0, len(later)); !bytes.Equal(now, later) {
		t.Fatal("the machine's write did not land")
	}
	if !bytes.Equal(image[:64], want) {
		t.Fatal("a write on the machine changed an earlier capture")
	}
}

func TestRecoverKeyFacade(t *testing.T) {
	m, err := NewMachine(MachineConfig{MemoryMB: 8, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Connect(); err != nil {
		t.Fatal(err)
	}
	res := RecoverKey(m.DumpMemory(), key, RecoveryOptions{FactorStride: 16, MaxHits: 1})
	if !res.Success() {
		t.Fatal("public-key-only recovery should succeed on unprotected machine")
	}
	if !res.First().Equal(key.Private) {
		t.Fatal("recovered key mismatch")
	}
}
