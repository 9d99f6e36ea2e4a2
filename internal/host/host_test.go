package host_test

import (
	"bytes"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

// Every server handle a driver holds is a host.Server.
var (
	_ host.Server = host.SSHD{}
	_ host.Server = host.HTTPD{}
	_ host.Server = (*supervise.Supervisor)(nil)
)

func newKey(t *testing.T, seed int64) *rsakey.PrivateKey {
	t.Helper()
	key, err := rsakey.Generate(stats.NewReader(seed), 512)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestBootMatchesHandWrittenOrder pins the boot order: Boot leaves the
// machine exactly as kernel.New, a WriteFile per PEM and then
// ScrambleFreeMemory do, down to every byte of physical memory and the
// allocator counters, also after the key files are read through the
// page cache.
func TestBootMatchesHandWrittenOrder(t *testing.T) {
	kc := kernel.Config{MemPages: 512, DeallocPolicy: protect.LevelNone.KernelPolicy()}
	keys := []host.Key{
		{Path: "/etc/keys/a.key", Key: newKey(t, 1)},
		{Path: "/etc/keys/b.key", Key: newKey(t, 2)},
	}
	const scrambleSeed = 7
	got, err := host.Boot(kc, scrambleSeed, keys...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernel.New(kc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if err := want.FS().WriteFile(key.Path, key.Key.MarshalPEM()); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.ScrambleFreeMemory(scrambleSeed); err != nil {
		t.Fatal(err)
	}
	for _, k := range []*kernel.Kernel{got, want} {
		for _, key := range keys {
			if _, err := k.ReadFile(key.Path, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	gotMem, err := got.Mem().Read(0, got.Mem().Size())
	if err != nil {
		t.Fatal(err)
	}
	wantMem, err := want.Mem().Read(0, want.Mem().Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMem, wantMem) {
		t.Error("physical memory differs from the hand-written boot")
	}
	if g, w := got.Alloc().Stats(), want.Alloc().Stats(); g != w {
		t.Errorf("allocator stats %+v, want %+v", g, w)
	}
}

// TestAdaptersMapServerMethods: each adapter's Churn, Maintain and PID
// reach the server method it stands for.
func TestAdaptersMapServerMethods(t *testing.T) {
	const path = "/etc/keys/server.key"
	k, err := host.Boot(kernel.Config{MemPages: 2048}, 3, host.Key{Path: path, Key: newKey(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sshd.Start(k, sshd.Config{KeyPath: path, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// One worker to start and two spares wanted: Maintain must fork one.
	h, err := httpd.Start(k, httpd.Config{KeyPath: path, Seed: 6,
		StartServers: 1, MinSpareServers: 2, MaxSpareServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		srv    host.Server
		pid    int
		moved  func() int
		forked func() int
		forks  int // workers Maintain forks
	}{
		{host.SSHD{Server: s}, s.MasterPID(),
			func() int { return s.Stats().BytesMoved }, func() int { return 0 }, 0},
		{host.HTTPD{Server: h}, h.ParentPID(),
			func() int { return h.Stats().BytesMoved }, func() int { return h.Stats().WorkersForked }, 1},
	} {
		if tc.srv.PID() != tc.pid || tc.pid == 0 {
			t.Errorf("%T: PID = %d, want %d", tc.srv, tc.srv.PID(), tc.pid)
		}
		id, err := tc.srv.Connect()
		if err != nil {
			t.Fatal(err)
		}
		before := tc.moved()
		if err := tc.srv.Churn(id, 4096); err != nil {
			t.Fatal(err)
		}
		if got := tc.moved() - before; got != 4096 {
			t.Errorf("%T: Churn moved %d bytes, want 4096", tc.srv, got)
		}
		if err := tc.srv.Disconnect(id); err != nil {
			t.Fatal(err)
		}
		before = tc.forked()
		if err := tc.srv.Maintain(); err != nil {
			t.Fatal(err)
		}
		if got := tc.forked() - before; got != tc.forks {
			t.Errorf("%T: Maintain forked %d workers, want %d", tc.srv, got, tc.forks)
		}
		if err := tc.srv.Stop(); err != nil {
			t.Fatal(err)
		}
		if tc.srv.Running() {
			t.Errorf("%T still running after Stop", tc.srv)
		}
	}
}
