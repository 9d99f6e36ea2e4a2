package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustNew(t *testing.T, pages int) *Memory {
	t.Helper()
	m, err := New(pages)
	if err != nil {
		t.Fatalf("New(%d): %v", pages, err)
	}
	return m
}

// freeFrames counts the frames in state FrameFree.
func freeFrames(m *Memory) int {
	n := 0
	for i := range m.frames {
		if m.frames[i].State == FrameFree {
			n++
		}
	}
	return n
}

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
}

func TestNewBootsFreeAndZero(t *testing.T) {
	m := mustNew(t, 8)
	if got := m.NumPages(); got != 8 {
		t.Fatalf("NumPages = %d, want 8", got)
	}
	if got := m.Size(); got != 8*PageSize {
		t.Fatalf("Size = %d, want %d", got, 8*PageSize)
	}
	if got := freeFrames(m); got != 8 {
		t.Fatalf("free frames = %d, want 8", got)
	}
	for pn := PageNum(0); int(pn) < m.NumPages(); pn++ {
		if !m.PageIsZero(pn) {
			t.Fatalf("page %d not zero at boot", pn)
		}
	}
}

func TestAddrConversions(t *testing.T) {
	tests := []struct {
		addr   Addr
		page   PageNum
		offset int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{PageSize - 1, 0, PageSize - 1},
		{PageSize, 1, 0},
		{3*PageSize + 17, 3, 17},
	}
	for _, tt := range tests {
		if got := tt.addr.Page(); got != tt.page {
			t.Errorf("Addr(%d).Page() = %d, want %d", tt.addr, got, tt.page)
		}
		if got := tt.addr.Offset(); got != tt.offset {
			t.Errorf("Addr(%d).Offset() = %d, want %d", tt.addr, got, tt.offset)
		}
	}
	if got := PageNum(5).Base(); got != Addr(5*PageSize) {
		t.Errorf("PageNum(5).Base() = %d, want %d", got, 5*PageSize)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := mustNew(t, 4)
	want := []byte("the quick brown fox")
	if err := m.Write(100, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(100, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read = %q, want %q", got, want)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	m := mustNew(t, 2)
	want := bytes.Repeat([]byte{0xAB}, 100)
	addr := Addr(PageSize - 50)
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-boundary write not read back")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := mustNew(t, 1)
	if _, err := m.Read(Addr(PageSize), 1); err == nil {
		t.Error("Read past end: want error")
	}
	if _, err := m.Read(Addr(PageSize-1), 2); err == nil {
		t.Error("Read straddling end: want error")
	}
	if err := m.Write(Addr(PageSize), []byte{1}); err == nil {
		t.Error("Write past end: want error")
	}
	if err := m.Zero(Addr(PageSize-1), 2); err == nil {
		t.Error("Zero straddling end: want error")
	}
	if _, err := m.View(Addr(PageSize), 1); err == nil {
		t.Error("View past end: want error")
	}
	if _, err := m.Read(5, -1); err == nil {
		t.Error("negative length read: want error")
	}
}

func TestZeroAndPageIsZero(t *testing.T) {
	m := mustNew(t, 2)
	if err := m.Write(10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.PageIsZero(0) {
		t.Fatal("page 0 should be dirty")
	}
	if err := m.ZeroPage(0); err != nil {
		t.Fatal(err)
	}
	if !m.PageIsZero(0) {
		t.Fatal("page 0 should be zero after ZeroPage")
	}
	if err := m.ZeroPage(99); err == nil {
		t.Error("ZeroPage(invalid): want error")
	}
	if m.PageIsZero(99) {
		t.Error("PageIsZero(invalid) should be false")
	}
}

func TestZeroPartialRange(t *testing.T) {
	m := mustNew(t, 1)
	if err := m.Write(0, bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(16, 32); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0, 64)
	for i, b := range got {
		wantZero := i >= 16 && i < 48
		if wantZero && b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
		if !wantZero && b != 0xFF {
			t.Fatalf("byte %d = %#x, want 0xFF", i, b)
		}
	}
}

func TestCopyPage(t *testing.T) {
	m := mustNew(t, 3)
	src := bytes.Repeat([]byte{0x5A}, PageSize)
	if err := m.Write(PageNum(1).Base(), src); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPage(2, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(PageNum(2).Base(), PageSize)
	if !bytes.Equal(got, src) {
		t.Fatal("CopyPage did not copy contents")
	}
	if err := m.CopyPage(7, 1); err == nil {
		t.Error("CopyPage to invalid dst: want error")
	}
	if err := m.CopyPage(0, 7); err == nil {
		t.Error("CopyPage from invalid src: want error")
	}
}

func TestViewAliasesLiveMemory(t *testing.T) {
	m := mustNew(t, 1)
	v, err := m.View(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, []byte("secret!!")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "secret!!" {
		t.Fatalf("View = %q, want live view of writes", v)
	}
}

func TestFindAll(t *testing.T) {
	m := mustNew(t, 4)
	pat := []byte("KEYPART")
	locs := []Addr{3, 500, Addr(PageSize) + 7, Addr(3*PageSize) - 3}
	for _, a := range locs {
		if err := m.Write(a, pat); err != nil {
			t.Fatal(err)
		}
	}
	got := m.FindAll(pat)
	if len(got) != len(locs) {
		t.Fatalf("FindAll found %d, want %d: %v", len(got), len(locs), got)
	}
	for i, a := range locs {
		if got[i] != a {
			t.Errorf("match %d at %d, want %d", i, got[i], a)
		}
	}
	if got := m.FindAll(nil); got != nil {
		t.Error("FindAll(nil) should return nil")
	}
	if got := m.FindAll([]byte("ABSENT-PATTERN")); len(got) != 0 {
		t.Error("FindAll of absent pattern should be empty")
	}
}

func TestFindAllOverlapping(t *testing.T) {
	m := mustNew(t, 1)
	if err := m.Write(0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	got := m.FindAll([]byte("aa"))
	if len(got) != 3 {
		t.Fatalf("overlapping FindAll = %d matches, want 3", len(got))
	}
}

func TestFrameMetadata(t *testing.T) {
	m := mustNew(t, 2)
	f := m.Frame(1)
	if f.State != FrameFree {
		t.Fatalf("boot state = %v, want free", f.State)
	}
	f.State = FrameAllocated
	f.Owner = OwnerUser
	if m.Frame(1).State != FrameAllocated || m.Frame(1).Owner != OwnerUser {
		t.Fatal("Frame() must return a live pointer")
	}
	if !m.ValidPage(1) || m.ValidPage(2) {
		t.Fatal("ValidPage wrong")
	}
}

func TestReverseMap(t *testing.T) {
	var f Frame
	f.AddMapper(30)
	f.AddMapper(10)
	f.AddMapper(20)
	f.AddMapper(10) // duplicate ignored
	got := f.Mappers()
	want := []int{10, 20, 30}
	if len(got) != 3 {
		t.Fatalf("Mappers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Mappers = %v, want %v", got, want)
		}
	}
	if !f.HasMapper(20) || f.HasMapper(99) {
		t.Fatal("HasMapper wrong")
	}
	f.RemoveMapper(20)
	f.RemoveMapper(99) // absent: no-op
	if f.HasMapper(20) || len(f.Mappers()) != 2 {
		t.Fatal("RemoveMapper wrong")
	}
	f.ClearMappers()
	if len(f.Mappers()) != 0 {
		t.Fatal("ClearMappers wrong")
	}
}

func TestMappersReturnsCopy(t *testing.T) {
	var f Frame
	f.AddMapper(1)
	got := f.Mappers()
	got[0] = 42
	if !f.HasMapper(1) || f.HasMapper(42) {
		t.Fatal("Mappers must return a defensive copy")
	}
}

func TestStringers(t *testing.T) {
	if FrameFree.String() != "free" || FrameAllocated.String() != "allocated" {
		t.Error("FrameState.String wrong")
	}
	if FrameState(99).String() == "" {
		t.Error("unknown FrameState should still format")
	}
	for o, want := range map[Owner]string{
		OwnerNone: "none", OwnerKernel: "kernel", OwnerUser: "user",
		OwnerPageCache: "pagecache", OwnerSwap: "swap",
	} {
		if o.String() != want {
			t.Errorf("Owner(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if Owner(99).String() == "" {
		t.Error("unknown Owner should still format")
	}
}

// Property: write-then-read round-trips for arbitrary payloads and offsets.
func TestQuickReadWriteRoundTrip(t *testing.T) {
	m := mustNew(t, 16)
	f := func(off uint16, payload []byte) bool {
		addr := Addr(off) % Addr(m.Size())
		if !m.ValidRange(addr, len(payload)) {
			return true // out-of-range combinations are rejected elsewhere
		}
		if err := m.Write(addr, payload); err != nil {
			return false
		}
		got, err := m.Read(addr, len(payload))
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FindAll locates a random planted pattern at a random page-interior
// location, and the reported address is exact.
func TestQuickFindAllLocatesPlants(t *testing.T) {
	m := mustNew(t, 16)
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pat := make([]byte, 24)
		r.Read(pat)
		// Guarantee the pattern is distinctive (avoid all-zero collisions
		// with untouched memory).
		pat[0] = 0xA5
		addr := Addr(rng.Intn(m.Size() - len(pat)))
		if err := m.Write(addr, pat); err != nil {
			return false
		}
		found := m.FindAll(pat)
		ok := false
		for _, a := range found {
			if a == addr {
				ok = true
			}
		}
		// Clean up so plants don't accumulate into overlaps.
		if err := m.Zero(addr, len(pat)); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteGenerations(t *testing.T) {
	m := mustNew(t, 8)
	if m.Mutations() != 0 {
		t.Fatalf("boot mutations = %d, want 0", m.Mutations())
	}
	for pn := 0; pn < 8; pn++ {
		if g := m.Frame(PageNum(pn)).Gen(); g != 0 {
			t.Fatalf("boot gen of frame %d = %d, want 0", pn, g)
		}
	}

	// Write touching frames 1 and 2 stamps both with the same generation.
	if err := m.Write(PageNum(2).Base()-4, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 1 {
		t.Fatalf("mutations = %d, want 1", m.Mutations())
	}
	g1, g2 := m.Frame(1).Gen(), m.Frame(2).Gen()
	if g1 != 1 || g2 != 1 {
		t.Fatalf("gens = %d,%d, want 1,1", g1, g2)
	}
	if g := m.Frame(0).Gen(); g != 0 {
		t.Fatalf("untouched frame gen = %d, want 0", g)
	}

	// Each mutation kind bumps the counter and stamps only its frames.
	// The ZeroPage clears frame 2, which the Write above dirtied.
	if err := m.Zero(PageNum(3).Base(), 16); err != nil {
		t.Fatal(err)
	}
	if err := m.ZeroPage(2); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPage(5, 3); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 4 {
		t.Fatalf("mutations = %d, want 4", m.Mutations())
	}
	for pn, want := range map[PageNum]uint64{1: 1, 2: 3, 3: 2, 5: 4} {
		if g := m.Frame(pn).Gen(); g != want {
			t.Fatalf("frame %d gen = %d, want %d", pn, g, want)
		}
	}
	// CopyPage stamps the destination, not the source (src bytes did not
	// change).
	if g := m.Frame(3).Gen(); g != 2 {
		t.Fatalf("copy source gen = %d, want 2 (unchanged)", g)
	}

	// A ZeroPage of a frame that holds only zeros changes no byte: frame 4
	// was never written and frame 2 was just cleared, so neither the
	// counter nor their generations move.
	for _, pn := range []PageNum{4, 2} {
		before := m.Frame(pn).Gen()
		if err := m.ZeroPage(pn); err != nil {
			t.Fatal(err)
		}
		if m.Mutations() != 4 {
			t.Fatalf("ZeroPage(%d) of an all-zero frame: mutations = %d, want 4", pn, m.Mutations())
		}
		if g := m.Frame(pn).Gen(); g != before {
			t.Fatalf("ZeroPage(%d) of an all-zero frame: gen %d -> %d, want unchanged", pn, before, g)
		}
	}

	// Reads and views are not mutations.
	if _, err := m.Read(0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.View(0, m.Size()); err != nil {
		t.Fatal(err)
	}
	m.PageIsZero(0)
	if m.Mutations() != 4 {
		t.Fatalf("mutations after reads = %d, want 4", m.Mutations())
	}

	// Zero-length writes are no-ops for generations too.
	if err := m.Write(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(0, 0); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != 4 {
		t.Fatalf("mutations after empty ops = %d, want 4", m.Mutations())
	}
}

func TestGenerationWindowMaxStrictlyIncreases(t *testing.T) {
	// The incremental scanner's invariant: because gens come from one
	// monotonic counter, any write inside a frame window strictly
	// increases the window's maximum generation — even a write to a frame
	// that previously held a smaller gen than its neighbours.
	m := mustNew(t, 4)
	windowMax := func() uint64 {
		var mx uint64
		for pn := PageNum(0); pn < 4; pn++ {
			if g := m.Frame(pn).Gen(); g > mx {
				mx = g
			}
		}
		return mx
	}
	prev := windowMax()
	for _, pn := range []PageNum{3, 0, 2, 0, 1, 3, 0} {
		if err := m.Write(pn.Base(), []byte{0xAB}); err != nil {
			t.Fatal(err)
		}
		if now := windowMax(); now <= prev {
			t.Fatalf("write to frame %d: window max %d -> %d, want strict increase", pn, prev, now)
		} else {
			prev = now
		}
	}
}

// The zero mark lives in Frame's padding: the struct is the size of the
// same fields without it.
func TestFrameSizeUnchangedByZeroMark(t *testing.T) {
	type unmarked struct {
		State    FrameState
		Owner    Owner
		RefCount int
		Locked   bool
		gen      uint64
		mappers  []int
	}
	if got, want := unsafe.Sizeof(Frame{}), unsafe.Sizeof(unmarked{}); got != want {
		t.Fatalf("Frame is %d bytes, want %d", got, want)
	}
}

func TestZeroMark(t *testing.T) {
	m := mustNew(t, 4)
	for pn := range m.frames {
		if !m.frames[pn].zeroed {
			t.Fatalf("frame %d not marked zero at boot", pn)
		}
	}
	// Writing zeros still marks the frame dirty: the mark tracks writes,
	// not contents.
	if err := m.Write(PageNum(1).Base(), make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(PageNum(2).Base()+100, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyPage(3, 0); err != nil {
		t.Fatal(err)
	}
	for pn, want := range []bool{true, false, false, false} {
		if got := m.frames[pn].zeroed; got != want {
			t.Fatalf("frame %d zeroed = %v, want %v", pn, got, want)
		}
	}
	if err := m.ZeroPage(1); err != nil {
		t.Fatal(err)
	}
	if !m.frames[1].zeroed {
		t.Fatal("ZeroPage must mark the frame zero")
	}
	if _, ok := m.FalseZero(); ok {
		t.Fatal("FalseZero reports a frame on a consistent memory")
	}
	// A Frame rebuilt outside the mark's writers reads as dirty.
	*m.Frame(0) = Frame{State: FrameFree}
	muts := m.Mutations()
	if err := m.ZeroPage(0); err != nil {
		t.Fatal(err)
	}
	if m.Mutations() != muts+1 {
		t.Fatal("ZeroPage of an unmarked frame must clear it")
	}
	// The audit reads bytes, not the mark.
	m.data[PageNum(2).Base()] = 1
	m.frames[2].zeroed = true
	if pn, ok := m.FalseZero(); !ok || pn != 2 {
		t.Fatalf("FalseZero = %d, %v, want 2, true", pn, ok)
	}
}

// notFresh reports how m differs from what New returns, or nil: every
// frame must hold only zero bytes and equal a fresh frame, and the
// mutation counter must be 0.
func notFresh(m *Memory) error {
	fresh := Frame{State: FrameFree, Owner: OwnerNone, zeroed: true}
	for pn := range m.frames {
		if !m.PageIsZero(PageNum(pn)) {
			return fmt.Errorf("frame %d holds a non-zero byte", pn)
		}
		if !reflect.DeepEqual(m.frames[pn], fresh) {
			return fmt.Errorf("frame %d = %+v, want %+v", pn, m.frames[pn], fresh)
		}
	}
	if m.Mutations() != 0 {
		return fmt.Errorf("mutations = %d, want 0", m.Mutations())
	}
	return nil
}

// A released memory is reset for its next New and its handle refuses use;
// a New of another size allocates its own arrays.
func TestRelease(t *testing.T) {
	m := mustNew(t, 4)
	if err := m.Write(PageNum(1).Base()+7, []byte("stale key")); err != nil {
		t.Fatal(err)
	}
	f := m.Frame(1)
	f.State, f.Owner, f.RefCount, f.Locked = FrameAllocated, OwnerUser, 2, true
	f.AddMapper(9)
	first := m.Frame(0)
	m.Release()
	m.Release() // an empty handle: pushes nothing twice
	if err := m.Write(0, []byte{1}); err == nil {
		t.Error("Write on a released handle: want error")
	}
	if m.ValidPage(0) {
		t.Error("ValidPage(0) on a released handle: want false")
	}
	other := mustNew(t, 5)
	if other.Frame(0) == first {
		t.Fatal("New(5) reused a 4-page memory")
	}
	reused := mustNew(t, 4)
	if reused.Frame(0) != first {
		t.Fatal("New(4) did not reuse the released memory")
	}
	if err := notFresh(reused); err != nil {
		t.Fatal(err)
	}
	if again := mustNew(t, 4); again.Frame(0) == first {
		t.Fatal("one released memory handed out twice")
	}
}

// TestReleaseConcurrent runs New, Write and Release in a loop on several
// goroutines, so the race detector sees the free list's hand-offs, and a
// memory handed to two owners at once shows as a used memory or a torn
// read-back.
func TestReleaseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 4) // one per goroutine
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tag := bytes.Repeat([]byte{byte(g + 1)}, 64)
			for i := range 200 {
				m, err := New(16)
				if err == nil {
					err = notFresh(m)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				addr := PageNum(i % 16).Base()
				if err := m.Write(addr, tag); err != nil {
					errs <- err
					return
				}
				if got, _ := m.Read(addr, len(tag)); !bytes.Equal(got, tag) {
					errs <- fmt.Errorf("goroutine %d: read back another owner's bytes", g)
					return
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzZeroedFrames drives Write, Zero, ZeroPage and CopyPage over an
// 8-frame memory, four input bytes per operation. After every step each
// frame marked zero must hold only zero bytes, and a ZeroPage must leave
// the mutation counter and the frame's generation alone exactly when the
// frame was marked zero, and bump both otherwise. Every input ends with a
// Release and a New(8), which must reuse the released arrays and return
// them exactly as a fresh New would.
func FuzzZeroedFrames(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0x41})                            // write 0x01 bytes into frame 0
	f.Add([]byte{0, 0x10, 0, 0x05, 2, 1, 0, 0, 2, 1, 0, 0}) // write zeros, ZeroPage twice
	f.Add([]byte{0, 0x0f, 0xf0, 0xff, 3, 2, 0, 0, 2, 2, 0, 0, 1, 0x20, 0x10, 0x80, 2, 2, 0, 0})
	f.Add([]byte{1, 0x1f, 0xf0, 0xff, 2, 7, 0, 0, 3, 6, 5, 0, 2, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := mustNew(t, 8)
		size := m.Size()
		span := func(hi, lo byte, n int) (Addr, int) {
			addr := (int(hi)<<8 | int(lo)) % size
			return Addr(addr), min(n, size-addr)
		}
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, hi, lo, v := ops[0]%4, ops[1], ops[2], ops[3]
			switch op {
			case 0: // v&63+1 bytes of value v>>6 (zeros included)
				addr, n := span(hi, lo, int(v&63)+1)
				if err := m.Write(addr, bytes.Repeat([]byte{v >> 6}, n)); err != nil {
					t.Fatal(err)
				}
			case 1: // up to a page and a bit, so it can straddle frames
				addr, n := span(hi, lo, int(v)*17+1)
				if err := m.Zero(addr, n); err != nil {
					t.Fatal(err)
				}
			case 2:
				pn := PageNum(hi % 8)
				marked, muts, gen := m.frames[pn].zeroed, m.Mutations(), m.Frame(pn).Gen()
				if err := m.ZeroPage(pn); err != nil {
					t.Fatal(err)
				}
				switch {
				case marked && (m.Mutations() != muts || m.Frame(pn).Gen() != gen):
					t.Fatalf("step %d: ZeroPage(%d) of a marked frame moved mutations %d -> %d, gen %d -> %d",
						step, pn, muts, m.Mutations(), gen, m.Frame(pn).Gen())
				case !marked && (m.Mutations() != muts+1 || m.Frame(pn).Gen() != m.Mutations()):
					t.Fatalf("step %d: ZeroPage(%d) of an unmarked frame: mutations %d -> %d, gen %d -> %d, want both bumped",
						step, pn, muts, m.Mutations(), gen, m.Frame(pn).Gen())
				}
			case 3:
				if err := m.CopyPage(PageNum(hi%8), PageNum(lo%8)); err != nil {
					t.Fatal(err)
				}
			}
			for pn := range m.frames {
				if m.frames[pn].zeroed && !m.PageIsZero(PageNum(pn)) {
					t.Fatalf("step %d (op %d): frame %d marked zero holds a non-zero byte", step, op, pn)
				}
			}
		}
		first := m.Frame(0)
		m.Release()
		reused := mustNew(t, 8)
		if reused.Frame(0) != first {
			t.Fatal("New(8) did not reuse the released memory")
		}
		if err := notFresh(reused); err != nil {
			t.Fatal(err)
		}
	})
}
