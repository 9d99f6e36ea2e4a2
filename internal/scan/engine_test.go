package scan

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"memshield/internal/mem"
)

// refFindAll is the old per-pattern reference search the single-pass
// engine must reproduce exactly: every occurrence of every pattern,
// overlapping included.
func refFindAll(buf []byte, patterns []Pattern) []BufferMatch {
	var out []BufferMatch
	for off := 0; off < len(buf); off++ {
		for _, p := range patterns {
			if len(p.Bytes) > 0 && bytes.HasPrefix(buf[off:], p.Bytes) {
				out = append(out, BufferMatch{Off: off, Len: len(p.Bytes), Part: p.Part})
			}
		}
	}
	return out
}

func TestFindAllInBufferMatchesReference(t *testing.T) {
	// A buffer dense with shared prefixes, overlaps and repeats.
	buf := []byte("ababab--abc--ab+++xyzxyzxyz##a##ababc")
	patterns := []Pattern{
		{Part: PartD, Bytes: []byte("ab")},
		{Part: PartP, Bytes: []byte("abab")},
		{Part: PartQ, Bytes: []byte("abc")},
		{Part: PartPEM, Bytes: []byte("xyzxyz")},
	}
	got := FindAllInBuffer(buf, patterns)
	want := refFindAll(buf, patterns)
	// The reference emits in (Off, caller order); re-sort it with the
	// engine's documented (Off, Part, Len) key.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0; j-- {
			a, b := want[j-1], want[j]
			if a.Off < b.Off || (a.Off == b.Off && (a.Part < b.Part || (a.Part == b.Part && a.Len <= b.Len))) {
				break
			}
			want[j-1], want[j] = b, a
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FindAllInBuffer = %v, want %v", got, want)
	}
}

func TestFindAllInBufferTieBreakPinned(t *testing.T) {
	// Two patterns matching at the same offset ("abc" starts everywhere
	// "ab" does). The old offset-only sort.Slice left their relative order
	// unspecified; the engine pins (Off, Part, Len) regardless of the
	// caller's pattern order.
	buf := []byte("--abc--abc--")
	forward := []Pattern{
		{Part: PartD, Bytes: []byte("abc")},
		{Part: PartQ, Bytes: []byte("ab")},
	}
	reversed := []Pattern{forward[1], forward[0]}
	want := []BufferMatch{
		{Off: 2, Len: 3, Part: PartD}, {Off: 2, Len: 2, Part: PartQ},
		{Off: 7, Len: 3, Part: PartD}, {Off: 7, Len: 2, Part: PartQ},
	}
	for i := 0; i < 50; i++ {
		if got := FindAllInBuffer(buf, forward); !reflect.DeepEqual(got, want) {
			t.Fatalf("forward order: got %v, want %v", got, want)
		}
		if got := FindAllInBuffer(buf, reversed); !reflect.DeepEqual(got, want) {
			t.Fatalf("reversed order: got %v, want %v", got, want)
		}
	}
}

func TestCountInBufferOverlapping(t *testing.T) {
	sum := CountInBuffer([]byte("aaaa"), []Pattern{{Part: PartD, Bytes: []byte("aa")}})
	if sum.Total != 3 || sum.ByPart[PartD] != 3 {
		t.Fatalf("overlapping count = %+v, want 3", sum)
	}
}

func TestFoundAny(t *testing.T) {
	pats := []Pattern{{Part: PartD, Bytes: []byte("needle")}}
	if FoundAny([]byte("haystack"), pats) {
		t.Fatal("found pattern in clean buffer")
	}
	if !FoundAny([]byte("hay-needle-stack"), pats) {
		t.Fatal("missed pattern")
	}
}

// matchesEqual compares two match lists including classification.
func matchesEqual(a, b []Match) bool { return reflect.DeepEqual(a, b) }

// plantBoundary writes pattern p so that it straddles the boundary between
// frame pn and pn+1, starting half the pattern before the boundary.
func plantBoundary(t *testing.T, m *mem.Memory, pn mem.PageNum, p []byte) mem.Addr {
	t.Helper()
	addr := (pn + 1).Base() - mem.Addr(len(p)/2)
	if err := m.Write(addr, p); err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestScanWorkerCountInvarianceWithStraddles(t *testing.T) {
	pattern := []byte("BOUNDARY-STRADDLING-KEY-MATERIAL!")
	k := bootKernel(t)
	m := k.Mem()
	// Straddle every frame boundary: whatever shard split any worker count
	// produces, some plant crosses it.
	var want []mem.Addr
	for pn := 0; pn < m.NumPages()-1; pn++ {
		want = append(want, plantBoundary(t, m, mem.PageNum(pn), pattern))
	}
	pats := []Pattern{{Part: PartD, Bytes: pattern}}
	var ref []Match
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		got := NewWith(k, pats, Options{Workers: workers}).Scan()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(want))
		}
		for i, mt := range got {
			if mt.Addr != want[i] {
				t.Fatalf("workers=%d: match %d at %#x, want %#x", workers, i, mt.Addr, want[i])
			}
		}
		if ref == nil {
			ref = got
		} else if !matchesEqual(got, ref) {
			t.Fatalf("workers=%d: results differ from workers=1", workers)
		}
	}
}

func TestScannerIncrementalTracksWrites(t *testing.T) {
	pattern := []byte("GENERATION-TRACKED-SECRET")
	k := bootKernel(t)
	m := k.Mem()
	numFrames := m.NumPages()
	sc := New(k, []Pattern{{Part: PartP, Bytes: pattern}})

	if got := sc.Scan(); len(got) != 0 {
		t.Fatalf("clean machine: %d matches", len(got))
	}
	cold := sc.Stats()
	if cold.FramesScanned != numFrames {
		t.Fatalf("cold scan walked %d frames, want %d", cold.FramesScanned, numFrames)
	}

	// No writes: the rescan must be served entirely from cache.
	if got := sc.Scan(); len(got) != 0 {
		t.Fatalf("idle rescan: %d matches", len(got))
	}
	idle := sc.Stats()
	if d := idle.FramesScanned - cold.FramesScanned; d != 0 {
		t.Fatalf("idle rescan re-walked %d frames, want 0", d)
	}
	if d := idle.FramesCached - cold.FramesCached; d != numFrames {
		t.Fatalf("idle rescan cached %d frames, want %d", d, numFrames)
	}

	// One write: the rescan sees the new match and re-walks only the dirty
	// neighbourhood (the touched frame plus the preceding frame whose
	// overlap window covers it), not the whole memory.
	addr := mem.PageNum(37).Base() + 100
	if err := m.Write(addr, pattern); err != nil {
		t.Fatal(err)
	}
	got := sc.Scan()
	if len(got) != 1 || got[0].Addr != addr {
		t.Fatalf("after write: matches %v, want one at %#x", got, addr)
	}
	warm := sc.Stats()
	if d := warm.FramesScanned - idle.FramesScanned; d < 1 || d > 2 {
		t.Fatalf("dirty rescan re-walked %d frames, want 1..2 (O(dirty), not O(memory))", d)
	}

	// Zeroing the region retracts the match.
	if err := m.Zero(addr, len(pattern)); err != nil {
		t.Fatal(err)
	}
	if got := sc.Scan(); len(got) != 0 {
		t.Fatalf("after zero: matches %v, want none", got)
	}
}

func TestScannerInvalidatesOnOverlapTailWrite(t *testing.T) {
	// A match starting in frame f can be created by a write that touches
	// only frame f+1 (the overlap tail). The generation window must catch
	// that: frame f's cache covers [f, f+span].
	pattern := []byte("SPLIT-ACROSS-THE-BOUNDARY-KEY")
	k := bootKernel(t)
	m := k.Mem()
	sc := New(k, []Pattern{{Part: PartQ, Bytes: pattern}})

	head := len(pattern) / 2
	start := mem.PageNum(9).Base() - mem.Addr(head)
	if err := m.Write(start, pattern[:head]); err != nil {
		t.Fatal(err)
	}
	if got := sc.Scan(); len(got) != 0 {
		t.Fatalf("half-planted: matches %v, want none", got)
	}
	// Complete the pattern by writing only into frame 9.
	if err := m.Write(mem.PageNum(9).Base(), pattern[head:]); err != nil {
		t.Fatal(err)
	}
	got := sc.Scan()
	if len(got) != 1 || got[0].Addr != start {
		t.Fatalf("completed: matches %v, want one at %#x", got, start)
	}
}

func TestScannerReclassifiesCachedMatches(t *testing.T) {
	// Frame metadata can change with no byte written (alloc/free, reverse
	// map). Cached matches must still be classified against the current
	// frame state on every Scan.
	pattern := []byte("METADATA-ONLY-TRANSITION-KEY")
	k := bootKernel(t)
	m := k.Mem()
	addr := mem.PageNum(12).Base() + 8
	if err := m.Write(addr, pattern); err != nil {
		t.Fatal(err)
	}
	sc := New(k, []Pattern{{Part: PartD, Bytes: pattern}})
	got := sc.Scan()
	if len(got) != 1 || got[0].Allocated {
		t.Fatalf("boot state: matches %v, want one unallocated", got)
	}
	before := sc.Stats()

	fr := m.Frame(addr.Page())
	fr.State = mem.FrameAllocated
	fr.Owner = mem.OwnerUser
	fr.AddMapper(41)

	got = sc.Scan()
	if len(got) != 1 || !got[0].Allocated || got[0].Owner != mem.OwnerUser ||
		len(got[0].PIDs) != 1 || got[0].PIDs[0] != 41 {
		t.Fatalf("after metadata flip: matches %v, want allocated/user/[41]", got)
	}
	after := sc.Stats()
	if d := after.FramesScanned - before.FramesScanned; d != 0 {
		t.Fatalf("metadata flip re-walked %d frames, want 0 (classification is cache-independent)", d)
	}
}

// Each match's PIDs are a window of one backing slice, capped at their
// length: they hold the frame's mappers in order, and appending to one
// match's PIDs leaves every other match's intact.
func TestScanPIDsAreCappedWindows(t *testing.T) {
	pattern := []byte("SHARED-FRAME-PIDS-KEY")
	k := bootKernel(t)
	m := k.Mem()
	for i, pn := range []mem.PageNum{12, 13, 14} {
		if err := m.Write(pn.Base()+8, pattern); err != nil {
			t.Fatal(err)
		}
		fr := m.Frame(pn)
		fr.State = mem.FrameAllocated
		for pid := 1; pid <= i+1; pid++ {
			fr.AddMapper(40 + pid)
		}
	}
	got := New(k, []Pattern{{Part: PartD, Bytes: pattern}}).Scan()
	if len(got) != 3 {
		t.Fatalf("matches = %v, want 3", got)
	}
	for i, mt := range got {
		want := m.Frame(mt.Addr.Page()).Mappers()
		if len(mt.PIDs) != i+1 || cap(mt.PIDs) != len(mt.PIDs) || fmt.Sprint(mt.PIDs) != fmt.Sprint(want) {
			t.Fatalf("match %d PIDs = %v (cap %d), want %v capped", i, mt.PIDs, cap(mt.PIDs), want)
		}
	}
	_ = append(got[0].PIDs, 99)
	if fmt.Sprint(got[1].PIDs) != "[41 42]" {
		t.Fatalf("append to match 0 changed match 1's PIDs to %v", got[1].PIDs)
	}
}

func TestScanMatchOrderIsPatternMajor(t *testing.T) {
	// The scanner's public order contract — pattern-major in caller order,
	// address-ascending within a pattern — is what every golden timeline
	// serialization depends on.
	k := bootKernel(t)
	m := k.Mem()
	pd := []byte("DDDD-PATTERN")
	pq := []byte("QQQQ-PATTERN")
	for _, plant := range []struct {
		addr mem.Addr
		b    []byte
	}{
		{mem.PageNum(5).Base(), pq},
		{mem.PageNum(6).Base(), pd},
		{mem.PageNum(7).Base(), pq},
		{mem.PageNum(8).Base(), pd},
	} {
		if err := m.Write(plant.addr, plant.b); err != nil {
			t.Fatal(err)
		}
	}
	sc := New(k, []Pattern{{Part: PartD, Bytes: pd}, {Part: PartQ, Bytes: pq}})
	got := sc.Scan()
	wantParts := []Part{PartD, PartD, PartQ, PartQ}
	wantPages := []mem.PageNum{6, 8, 5, 7}
	if len(got) != 4 {
		t.Fatalf("matches = %d, want 4", len(got))
	}
	for i, mt := range got {
		if mt.Part != wantParts[i] || mt.Addr.Page() != wantPages[i] {
			t.Fatalf("match %d = (%v, page %d), want (%v, page %d)",
				i, mt.Part, mt.Addr.Page(), wantParts[i], wantPages[i])
		}
	}
}
