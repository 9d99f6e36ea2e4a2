package kernel

import (
	"testing"

	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/vm"
	"memshield/internal/mem"
)

// BenchmarkForkExit times the life of a connection child on a scrambled
// zero-on-free machine: fork a parent holding a server-sized mapping set
// (a key page, a 16-page heap and a 4-page stack), break COW with one
// write to the heap, then exit — the path the repository benchmark's
// vm.fork_exit_us probe and every sshd disconnect take.
func BenchmarkForkExit(b *testing.B) {
	k, err := New(Config{MemPages: 8192, DeallocPolicy: alloc.PolicyZeroOnFree})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.ScrambleFreeMemory(2007); err != nil {
		b.Fatal(err)
	}
	parent, err := k.Spawn(0, "server")
	if err != nil {
		b.Fatal(err)
	}
	var heap vm.VAddr
	for _, m := range []struct {
		name  string
		pages int
	}{{"key", 1}, {"heap", 16}, {"stack", 4}} {
		va, err := k.VM().MapAnon(parent, m.pages, m.name)
		if err != nil {
			b.Fatal(err)
		}
		if m.name == "heap" {
			heap = va
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := k.Fork(parent, "child")
		if err != nil {
			b.Fatal(err)
		}
		if err := k.VM().Write(child, heap+mem.PageSize, []byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		if err := k.Exit(child); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoot times the boot of one benchmark-sized machine (the 19,152
// pages fleet.Sized gives about 5,000 connections per machine): kernel
// New and the free-list scramble, then the Release that hands the memory
// to the next iteration's New, as the fleet does between machines.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, err := New(Config{MemPages: 19152, DeallocPolicy: alloc.PolicyZeroOnFree})
		if err != nil {
			b.Fatal(err)
		}
		if err := k.ScrambleFreeMemory(int64(i)); err != nil {
			b.Fatal(err)
		}
		k.Mem().Release()
	}
}
