package kernel

import (
	"bytes"
	"testing"
)

func TestCoreDumpCapturesResidentMemory(t *testing.T) {
	k := boot(t, Config{MemPages: 128})
	pid, err := k.Spawn(0, "app")
	if err != nil {
		t.Fatal(err)
	}
	va, err := k.VM().MapAnon(pid, 3, "heap")
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("CRASH-DUMP-SECRET-0123456789")
	if err := k.VM().Write(pid, va+5000, secret); err != nil {
		t.Fatal(err)
	}
	dump, err := k.CoreDump(pid, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 3*4096 {
		t.Fatalf("dump size = %d, want 3 pages", len(dump))
	}
	if !bytes.Contains(dump, secret) {
		t.Fatal("core dump must contain process memory")
	}
	if _, err := k.CoreDump(999, false); err == nil {
		t.Fatal("dump of missing pid should error")
	}
}

func TestCoreDumpScrubsMlockedRegions(t *testing.T) {
	k := boot(t, Config{MemPages: 128})
	pid, _ := k.Spawn(0, "app")
	va, err := k.VM().MapAnon(pid, 4, "heap")
	if err != nil {
		t.Fatal(err)
	}
	public := []byte("ORDINARY-APP-STATE")
	secret := []byte("MLOCKED-KEY-MATERIAL-XYZ")
	if err := k.VM().Write(pid, va, public); err != nil {
		t.Fatal(err)
	}
	keyPage := va + 2*4096
	if err := k.VM().Write(pid, keyPage, secret); err != nil {
		t.Fatal(err)
	}
	if err := k.VM().Mlock(pid, keyPage, 1); err != nil {
		t.Fatal(err)
	}
	// Unscrubbed dump leaks both.
	raw, err := k.CoreDump(pid, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, secret) || !bytes.Contains(raw, public) {
		t.Fatal("raw dump should contain everything")
	}
	// Scrubbed dump keeps app state but drops the sensitive region, at
	// unchanged size (the dump stays structurally intact for debugging).
	scrubbed, err := k.CoreDump(pid, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(scrubbed) != len(raw) {
		t.Fatal("scrubbing must not change the dump layout")
	}
	if bytes.Contains(scrubbed, secret) {
		t.Fatal("scrubbed dump must not contain mlocked data")
	}
	if !bytes.Contains(scrubbed, public) {
		t.Fatal("scrubbed dump must keep ordinary state")
	}
}

func TestCoreDumpSkipsSwappedPages(t *testing.T) {
	k := boot(t, Config{MemPages: 128, SwapPages: 8})
	pid, _ := k.Spawn(0, "app")
	va, err := k.VM().MapAnon(pid, 2, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.VM().Write(pid, va, []byte("SWAPPED-AWAY")); err != nil {
		t.Fatal(err)
	}
	if err := k.VM().SwapOut(pid, va); err != nil {
		t.Fatal(err)
	}
	dump, err := k.CoreDump(pid, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 4096 {
		t.Fatalf("dump size = %d, want 1 resident page", len(dump))
	}
	if bytes.Contains(dump, []byte("SWAPPED-AWAY")) {
		t.Fatal("crash dumper must not fault in swapped pages")
	}
}

// A dump is one allocation: each resident page is read straight into its
// slot, with no per-page copy left behind.
func TestCoreDumpAllocatesOnce(t *testing.T) {
	k := boot(t, Config{MemPages: 128})
	pid, _ := k.Spawn(0, "app")
	va, err := k.VM().MapAnon(pid, 3, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.VM().Write(pid, va+5000, []byte("DUMPED")); err != nil {
		t.Fatal(err)
	}
	if err := k.VM().Mlock(pid, va+4096, 1); err != nil {
		t.Fatal(err)
	}
	for _, scrub := range []bool{false, true} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := k.CoreDump(pid, scrub); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("CoreDump(scrub=%v) of 3 pages: %v allocations, want 1", scrub, allocs)
		}
	}
}
