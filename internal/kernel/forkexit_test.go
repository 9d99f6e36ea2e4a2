package kernel_test

import (
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/libc"
	"memshield/internal/protect"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// BenchmarkForkExit times the life of an integrated sshd connection's
// child, handshake aside, on a scrambled zero-on-free machine: fork the
// master of an sshd started at LevelIntegrated, map a 16 KiB session
// arena in the child and fill it, then exit. Every sshd-integrated
// connection takes this path, and the repository benchmark's
// vm.fork_exit_us probe times its fork and exit.
func BenchmarkForkExit(b *testing.B) {
	level := protect.LevelIntegrated
	k, err := kernel.New(kernel.Config{MemPages: 8192, DeallocPolicy: level.KernelPolicy()})
	if err != nil {
		b.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(2007), 512)
	if err != nil {
		b.Fatal(err)
	}
	if err := k.FS().WriteFile("/etc/ssh/ssh_host_rsa_key", key.MarshalPEM()); err != nil {
		b.Fatal(err)
	}
	if err := k.ScrambleFreeMemory(2007); err != nil {
		b.Fatal(err)
	}
	srv, err := sshd.Start(k, sshd.Config{KeyPath: "/etc/ssh/ssh_host_rsa_key", Level: level, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	session := make([]byte, 16*1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := k.Fork(srv.MasterPID(), "sshd-child")
		if err != nil {
			b.Fatal(err)
		}
		h := libc.New(k, child)
		p, err := h.Malloc(len(session))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Write(p, session); err != nil {
			b.Fatal(err)
		}
		if err := k.Exit(child); err != nil {
			b.Fatal(err)
		}
	}
}
