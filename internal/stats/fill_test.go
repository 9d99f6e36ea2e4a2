package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestFillPinned pins the stream so it cannot drift silently: no golden
// covers payload bytes. Seed 0 reproduces the first two outputs of the
// reference splitmix64 generator; the seed-2007 vector is 20 bytes, so it
// also pins the truncated tail word.
func TestFillPinned(t *testing.T) {
	words := make([]byte, 16)
	Fill(words, 0)
	if got := [2]uint64{binary.LittleEndian.Uint64(words), binary.LittleEndian.Uint64(words[8:])}; got != [2]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4} {
		t.Fatalf("Fill seed 0 words = %#x, want the splitmix64 reference", got)
	}
	b := make([]byte, 20)
	Fill(b, 2007)
	if got, want := hex.EncodeToString(b), "19bedd0462c8caac3544da4c21b7dbe5fc95f23d"; got != want {
		t.Fatalf("Fill seed 2007 = %s, want %s", got, want)
	}
}

// TestFillPrefix: for every length 0..17 (every tail length, on both sides
// of a word boundary) Fill(a[:n]) is a prefix of Fill(a[:m]) for n < m, and
// the destination is fully overwritten.
func TestFillPrefix(t *testing.T) {
	const longest = 17
	full := make([]byte, longest)
	Fill(full, 42)
	for n := 0; n <= longest; n++ {
		b := bytes.Repeat([]byte{0xa5}, n+1)
		Fill(b[:n], 42)
		if !bytes.Equal(b[:n], full[:n]) {
			t.Fatalf("Fill of %d bytes = %x, want prefix %x", n, b[:n], full[:n])
		}
		if b[n] != 0xa5 {
			t.Fatalf("Fill of %d bytes wrote past the end", n)
		}
	}
	// Every byte is written, tail included: the result does not depend on
	// what the destination held before.
	for n := 1; n <= longest; n++ {
		a, b := bytes.Repeat([]byte{0x00}, n), bytes.Repeat([]byte{0xff}, n)
		Fill(a, 42)
		Fill(b, 42)
		if !bytes.Equal(a, b) {
			t.Fatalf("Fill of %d bytes depends on prior contents: %x vs %x", n, a, b)
		}
	}
}

// TestFillSeedsDiffer: adjacent seeds — the servers' nonce sequence — give
// unrelated streams, not shifted copies of one another.
func TestFillSeedsDiffer(t *testing.T) {
	const n = 64
	seen := make(map[uint64]int64)
	for seed := int64(-8); seed < 1024; seed++ {
		b := make([]byte, n)
		Fill(b, seed)
		for i := 0; i < n; i += 8 {
			w := binary.LittleEndian.Uint64(b[i:])
			if prev, dup := seen[w]; dup {
				t.Fatalf("seeds %d and %d share the word %#x", prev, seed, w)
			}
			seen[w] = seed
		}
	}
}

func TestFillAllocatesNothing(t *testing.T) {
	b := make([]byte, 4096)
	var seed int64
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		Fill(b, seed)
	}); allocs != 0 {
		t.Fatalf("Fill allocates %v times per call, want 0", allocs)
	}
}

// TestScratchReuse: a Scratch grows once and then hands out the same
// buffer, filled with the requested seed's stream each time.
func TestScratchReuse(t *testing.T) {
	var s Scratch
	want := make([]byte, 4096)
	Fill(want, 9)
	if got := s.Fill(4096, 9); !bytes.Equal(got, want) {
		t.Fatal("Scratch.Fill differs from Fill")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Fill(4096, 10)
		s.Fill(32, 11)
	}); allocs != 0 {
		t.Fatalf("warm Scratch.Fill allocates %v times per call, want 0", allocs)
	}
	if got := s.Fill(5, 9); !bytes.Equal(got, want[:5]) {
		t.Fatal("short Scratch.Fill is not the stream's prefix")
	}
}

// sink keeps the benchmarks' output live.
var sink byte

// BenchmarkFill4K and BenchmarkNewRandRead4K compare the two ways of
// producing one 4 KiB transfer chunk of filler bytes under a fresh seed.
func BenchmarkFill4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fill(buf, int64(i))
	}
	sink = buf[len(buf)-1]
}

func BenchmarkNewRandRead4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRand(int64(i)).Read(buf)
	}
	sink = buf[len(buf)-1]
}
