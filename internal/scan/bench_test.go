package scan

import (
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/mem"
	"memshield/internal/stats"
)

// BenchmarkScanDirtyFrame measures one incremental rescan in the fleet's
// shape: four 512-bit tenant keys (16 patterns) over frames full of
// payload-like filler bytes, with one frame rewritten before every Scan.
// The write dirties that frame and the one before it (whose overlap
// window reaches into it); the machine is kept small so the O(frames)
// generation-sum walk stays minor next to the search itself.
func BenchmarkScanDirtyFrame(b *testing.B) {
	const frames = 64
	k, err := kernel.New(kernel.Config{MemPages: frames, DeallocPolicy: alloc.PolicyRetain})
	if err != nil {
		b.Fatal(err)
	}
	var patterns []Pattern
	for t := int64(0); t < 4; t++ {
		key, err := rsakey.Generate(stats.NewReader(1234+t), 512)
		if err != nil {
			b.Fatal(err)
		}
		patterns = append(patterns, PatternsFor(key)...)
	}
	m := k.Mem()
	page := make([]byte, mem.PageSize)
	for f := 0; f < frames; f++ {
		stats.Fill(page, int64(f))
		if err := m.Write(mem.PageNum(f).Base(), page); err != nil {
			b.Fatal(err)
		}
	}
	sc := NewWith(k, patterns, Options{Workers: 1})
	if got := sc.Scan(); len(got) != 0 {
		b.Fatalf("filler frames hold %d key matches, want 0", len(got))
	}
	// Two fills alternate so every write changes the frame's bytes.
	fills := [2][]byte{make([]byte, mem.PageSize), make([]byte, mem.PageSize)}
	stats.Fill(fills[0], frames)
	stats.Fill(fills[1], frames+1)
	dirty := mem.PageNum(frames / 2).Base()
	b.SetBytes(mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(dirty, fills[i%2]); err != nil {
			b.Fatal(err)
		}
		if got := sc.Scan(); len(got) != 0 {
			b.Fatalf("rescan found %d matches, want 0", len(got))
		}
	}
}
