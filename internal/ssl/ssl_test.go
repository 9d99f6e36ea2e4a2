package ssl

import (
	"bytes"
	"errors"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/libc"
	"memshield/internal/stats"
)

// fixture boots a machine, spawns a process with a heap, and returns a
// deterministic 512-bit key plus its PEM encoding.
type fixture struct {
	k    *kernel.Kernel
	pid  int
	heap *libc.Heap
	key  *rsakey.PrivateKey
	pem  []byte
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	return newFixtureConfig(t, kernel.Config{MemPages: 2048, DeallocPolicy: alloc.PolicyRetain})
}

func newFixtureConfig(t testing.TB, cfg kernel.Config) *fixture {
	t.Helper()
	k, err := kernel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := k.Spawn(0, "server")
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(99), 512)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		k:    k,
		pid:  pid,
		heap: libc.New(k, pid),
		key:  key,
		pem:  key.MarshalPEM(),
	}
}

// countPattern counts occurrences of pat in physical memory.
func (f *fixture) countPattern(pat []byte) int {
	return len(f.k.Mem().FindAll(pat))
}

func (f *fixture) load(t testing.TB, opts ...LoadOption) *RSA {
	t.Helper()
	r, err := D2iPrivateKey(f.heap, f.pem, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestD2iCreatesBigNumCopies(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	// Each of d, p, q appears exactly once (the BIGNUM buffers; the DER
	// and PEM temporaries were cleansed).
	for name, pat := range map[string][]byte{
		"d": f.key.D.Bytes(), "p": f.key.P.Bytes(), "q": f.key.Q.Bytes(),
	} {
		if got := f.countPattern(pat); got != 1 {
			t.Errorf("%s copies after d2i = %d, want 1", name, got)
		}
	}
	// The transient DER buffer was scrubbed: full DER absent.
	if got := f.countPattern(f.key.MarshalDER()); got != 0 {
		t.Errorf("DER copies = %d, want 0 (cleansed)", got)
	}
	if got := f.countPattern(f.pem); got != 0 {
		t.Errorf("PEM heap copies = %d, want 0 (cleansed)", got)
	}
	// Default flags: both caches enabled, not static.
	if r.Flags()&FlagCachePrivate == 0 || r.Flags()&FlagCachePublic == 0 {
		t.Error("cache flags should default on")
	}
	if r.Aligned() {
		t.Error("fresh object should not be aligned")
	}
	// BIGNUM contents round-trip.
	gotD, err := r.Parts()[0].Bytes()
	if err != nil || !bytes.Equal(gotD, f.key.D.Bytes()) {
		t.Fatalf("d readback mismatch: %v", err)
	}
}

// loadKey scrubs the decoded DER buffer, the one host-side copy of the
// key a load makes, on every path: after success and after each injected
// malloc failure. N and E, which the loaded RSA keeps, are its own.
func TestLoadKeyZeroizesParsedKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		failNth []uint64 // SiteMalloc calls to fail: 1 is the PEM buffer
	}{
		{"ok", nil},
		{"der malloc fails", []uint64{2}},
		{"bignum malloc fails", []uint64{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixtureConfig(t, kernel.Config{
				MemPages: 2048, DeallocPolicy: alloc.PolicyRetain,
				FaultPlan: &fault.Plan{Rules: map[fault.Site]fault.Rule{fault.SiteMalloc: {Nth: tc.failNth}}},
			})
			der, parts, err := rsakey.DecodePEM(f.pem)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(der, f.key.MarshalDER()) {
				t.Fatal("the decoded DER is not MarshalDER's encoding of the key")
			}
			pemBuf, err := f.heap.Malloc(len(f.pem))
			if err != nil {
				t.Fatal(err)
			}
			r, err := loadKey(f.heap, pemBuf, der, &parts, loadConfig{})
			if tc.failNth == nil {
				if err != nil {
					t.Fatal(err)
				}
				if r.pub.N.Cmp(f.key.N) != 0 || r.pub.E.Cmp(f.key.E) != 0 {
					t.Fatal("the loaded RSA lost N or E")
				}
			} else if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("loadKey = %v, want the injected malloc failure", err)
			}
			if !bytes.Equal(der, make([]byte, len(der))) {
				t.Error("the decoded DER buffer is not scrubbed")
			}
		})
	}
}

// A 512-bit load makes a bounded number of Go allocations: the one DER
// buffer, N and E, the RSA and its BIGNUM handles, and what the simulated
// heap and kernel need; the parse and validation make none of their own.
func TestD2iAllocs(t *testing.T) {
	f := newFixture(t)
	allocs := testing.AllocsPerRun(50, func() {
		r := f.load(t)
		if err := r.Free(true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 35 {
		t.Fatalf("D2iPrivateKey + Free = %v allocations, want at most 35", allocs)
	}
}

// A sealed private op costs at most 10 Go allocations more than a plain
// one: the seal window's HMACs, derived keys and region read use buffers
// the region owns, leaving the AES key schedule and CTR stream of each
// pass.
func TestSealWindowAllocs(t *testing.T) {
	f := newFixture(t)
	em, err := rsakey.EncodePKCS1v15([]byte("memshield handshake digest"), f.key.Size())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(sealed bool) float64 {
		r := f.load(t, WithAutoAlign())
		if sealed {
			if err := r.SealAtRest(stats.NewReader(7), nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := r.PrivateOp(em); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, sealed := allocs(false), allocs(true)
	if sealed > plain+10 {
		t.Fatalf("sealed private op = %v allocations, plain = %v; want at most 10 more", sealed, plain)
	}
}

func TestD2iRejectsGarbage(t *testing.T) {
	f := newFixture(t)
	if _, err := D2iPrivateKey(f.heap, []byte("not a pem")); err == nil {
		t.Fatal("garbage PEM should fail")
	}
	// No key material may linger after the failed load.
	if got := f.countPattern(f.key.D.Bytes()); got != 0 {
		t.Fatal("failed load must not leave key bytes")
	}
}

func TestPrivateOpComputesValidRSA(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	msg := []byte("session-key-digest-123")
	sig, err := r.PrivateOp(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub := r.PublicKey()
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("signature does not verify: %v", err)
	}
	// Matches the host-side CRT computation.
	want, err := f.key.SignCRT(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, want) {
		t.Fatal("in-sim op != host-side CRT")
	}
}

func TestPrivateOpZeroizesHostKey(t *testing.T) {
	// Every private op reads d, p, q, dP, dQ and qInv out of simulated
	// memory into the context's buffer, one after another; each must take
	// its part's size and be scrubbed once the op returns, whether or not
	// the key is sealed at rest. The op runs PrivateOp's own body through
	// withKey so the test can hold on to the context it used.
	for _, tc := range []struct {
		name string
		seal bool
	}{{"plain-aligned", false}, {"sealed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			r := f.load(t, WithAutoAlign())
			if tc.seal {
				if err := r.SealAtRest(stats.NewReader(7), nil); err != nil {
					t.Fatal(err)
				}
			}
			msg := []byte("session-key-blob")
			var ctx bnCtx
			sig, err := r.withKey(msg, &ctx)
			if err != nil {
				t.Fatal(err)
			}
			pub := r.PublicKey()
			if err := pub.Verify(msg, sig); err != nil {
				t.Fatalf("signature does not verify: %v", err)
			}
			names := []string{"d", "p", "q", "dP", "dQ", "qInv"}
			for i := range names {
				start := 0
				if i > 0 {
					start = ctx.end[i-1]
				}
				buf := ctx.buf[start:ctx.end[i]]
				if want := r.Parts()[i].Size(); len(buf) != want {
					t.Errorf("%s: the op read %d bytes, want the part's %d", names[i], len(buf), want)
				}
				if !bytes.Equal(buf, make([]byte, len(buf))) {
					t.Errorf("%s host buffer not scrubbed after the op", names[i])
				}
			}
		})
	}
}

// A plain private op on a 512-bit key allocates only its result: the
// parts are read into a context on PrivateOp's stack, with the Montgomery
// cache built on the first op and with the key aligned.
func TestPrivateOpAllocatesOnlyResult(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []LoadOption
	}{{"cached", nil}, {"aligned", []LoadOption{WithAutoAlign()}}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			r := f.load(t, tc.opts...)
			msg := []byte("session-key-blob")
			if _, err := r.PrivateOp(msg); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := r.PrivateOp(msg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Fatalf("PrivateOp = %v allocations, want 1 (its result)", allocs)
			}
		})
	}
}

// A key whose parts do not fit the context's buffer is read into a heap
// buffer instead: a 1024-bit key, with and without the Montgomery cache,
// still signs correctly, its parts end past the buffer, and the buffer
// (which the cache's P and Q still fit) ends all zero.
func TestPrivateOpWideKey(t *testing.T) {
	f := newFixture(t)
	key, err := rsakey.Generate(stats.NewReader(7), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]LoadOption{nil, {WithAutoAlign()}} {
		r, err := D2iPrivateKey(f.heap, key.MarshalPEM(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("session-key-blob")
		var ctx bnCtx
		sig, err := r.withKey(msg, &ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := key.SignCRT(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sig, want) {
			t.Fatal("wide-key op != host-side CRT")
		}
		if ctx.end[5] <= ctxBytes || ctx.buf != [ctxBytes]byte{} {
			t.Fatalf("parts end at %d and the stack buffer was written; want a heap buffer", ctx.end[5])
		}
		if err := r.Free(true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMontCacheCreatesCopies(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	if r.HasMontCache() {
		t.Fatal("cache should not exist before first op")
	}
	if _, err := r.PrivateOp([]byte("m1")); err != nil {
		t.Fatal(err)
	}
	if !r.HasMontCache() {
		t.Fatal("cache should exist after first op")
	}
	// p and q now appear twice each: BIGNUM + Montgomery cache.
	if got := f.countPattern(f.key.P.Bytes()); got != 2 {
		t.Fatalf("p copies after op = %d, want 2", got)
	}
	if got := f.countPattern(f.key.Q.Bytes()); got != 2 {
		t.Fatalf("q copies after op = %d, want 2", got)
	}
	// Further ops reuse the cache: no growth.
	for i := 0; i < 5; i++ {
		if _, err := r.PrivateOp([]byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.countPattern(f.key.P.Bytes()); got != 2 {
		t.Fatalf("p copies after 6 ops = %d, want 2 (cache reused)", got)
	}
}

func TestMemoryAlignSingleCopy(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	// Create the cache first so align must scrub it too.
	if _, err := r.PrivateOp([]byte("warmup")); err != nil {
		t.Fatal(err)
	}
	if err := r.MemoryAlign(); err != nil {
		t.Fatal(err)
	}
	if !r.Aligned() {
		t.Fatal("Aligned() should be true")
	}
	for name, pat := range map[string][]byte{
		"d": f.key.D.Bytes(), "p": f.key.P.Bytes(), "q": f.key.Q.Bytes(),
	} {
		if got := f.countPattern(pat); got != 1 {
			t.Errorf("%s copies after align = %d, want 1", name, got)
		}
	}
	// Cache flags cleared; no cache rebuilt by subsequent ops.
	if r.Flags()&(FlagCachePrivate|FlagCachePublic) != 0 {
		t.Fatal("cache flags must be cleared")
	}
	msg := []byte("post-align-op")
	sig, err := r.PrivateOp(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub := r.PublicKey()
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatal("post-align op must still compute correctly")
	}
	if r.HasMontCache() {
		t.Fatal("no cache may be rebuilt after align")
	}
	if got := f.countPattern(f.key.P.Bytes()); got != 1 {
		t.Fatalf("p copies after post-align ops = %d, want 1", got)
	}
	// Region is page-aligned and mlocked.
	base, pages, err := r.AlignedRegion()
	if err != nil {
		t.Fatal(err)
	}
	if base.Offset() != 0 || pages < 1 {
		t.Fatalf("aligned region %#x/%d pages", base, pages)
	}
	locked, err := f.k.VM().IsLocked(f.pid, base)
	if err != nil || !locked {
		t.Fatalf("aligned region not mlocked: %v", err)
	}
	// Parts are marked static.
	for i, bn := range r.Parts() {
		if !bn.Static() {
			t.Errorf("part %d not static", i)
		}
	}
	// Idempotent.
	if err := r.MemoryAlign(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryAlignZeroOnFreeFailure fails each zero-on-free call that
// MemoryAlign makes, one per run. Freeing a part's old buffer can release
// its libc arena; when the kernel then cannot zero the arena's pages, libc
// has already dropped the chunk, so the refusal must not free it again.
func TestMemoryAlignZeroOnFreeFailure(t *testing.T) {
	load := func(nth ...uint64) (*fixture, *RSA) {
		f := newFixtureConfig(t, kernel.Config{
			MemPages: 2048, DeallocPolicy: alloc.PolicyZeroOnFree,
			FaultPlan: &fault.Plan{Rules: map[fault.Site]fault.Rule{fault.SiteZeroOnFree: {Nth: nth}}},
		})
		return f, f.load(t)
	}
	f, r := load()
	first := f.k.Injector().Calls(fault.SiteZeroOnFree) + 1
	if err := r.MemoryAlign(); err != nil {
		t.Fatal(err)
	}
	last := f.k.Injector().Calls(fault.SiteZeroOnFree)
	if last < first {
		t.Fatal("MemoryAlign made no zero-on-free calls")
	}
	for n := first; n <= last; n++ {
		f, r := load(n)
		err := r.MemoryAlign()
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("zero-on-free call %d failed: MemoryAlign returned %v, want the injected failure", n, err)
		}
		if errors.Is(err, libc.ErrBadFree) || errors.Is(err, libc.ErrDoubleFree) {
			t.Errorf("zero-on-free call %d failed: a part was freed twice: %v", n, err)
		}
		if got := f.countPattern(f.key.P.Bytes()); got != 0 {
			t.Errorf("zero-on-free call %d failed: %d copies of p left after the refusal", n, got)
		}
	}
}

func TestWithAutoAlign(t *testing.T) {
	f := newFixture(t)
	r := f.load(t, WithAutoAlign())
	if !r.Aligned() {
		t.Fatal("WithAutoAlign should align at load")
	}
	if got := f.countPattern(f.key.P.Bytes()); got != 1 {
		t.Fatalf("p copies = %d, want 1", got)
	}
}

func TestFreeWithoutClearLeavesKeyMaterial(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	if _, err := r.PrivateOp([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(false); err != nil {
		t.Fatal(err)
	}
	// Plain free: the two copies of p (BIGNUM + cache) survive somewhere
	// in memory (allocated arena or freed pages).
	if got := f.countPattern(f.key.P.Bytes()); got != 2 {
		t.Fatalf("p copies after plain free = %d, want 2 (stale)", got)
	}
	if _, err := r.PrivateOp([]byte("x")); !errors.Is(err, ErrFreed) {
		t.Fatalf("op after free = %v", err)
	}
	if err := r.Free(false); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free = %v", err)
	}
}

func TestFreeWithClearScrubs(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	if _, err := r.PrivateOp([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(true); err != nil {
		t.Fatal(err)
	}
	for name, pat := range map[string][]byte{
		"d": f.key.D.Bytes(), "p": f.key.P.Bytes(), "q": f.key.Q.Bytes(),
	} {
		if got := f.countPattern(pat); got != 0 {
			t.Errorf("%s copies after clear free = %d, want 0", name, got)
		}
	}
}

func TestFreeAlignedWithClear(t *testing.T) {
	f := newFixture(t)
	r := f.load(t, WithAutoAlign())
	if err := r.Free(true); err != nil {
		t.Fatal(err)
	}
	if got := f.countPattern(f.key.D.Bytes()); got != 0 {
		t.Fatalf("d copies after aligned clear free = %d, want 0", got)
	}
}

func TestCloneForWorkerBuildsOwnCache(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	// Fork two workers before any private op (Apache prefork startup).
	w1, err := f.k.Fork(f.pid, "worker1")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := f.k.Fork(f.pid, "worker2")
	if err != nil {
		t.Fatal(err)
	}
	h1 := f.heap.Clone(w1)
	h2 := f.heap.Clone(w2)
	r1 := r.CloneFor(h1)
	r2 := r.CloneFor(h2)
	// COW: still exactly one copy of p.
	if got := f.countPattern(f.key.P.Bytes()); got != 1 {
		t.Fatalf("p copies after forks = %d, want 1 (COW)", got)
	}
	// Worker 1 handshakes: its cache adds one p copy (plus COW breaks of
	// the arena pages it writes, which may duplicate neighbours).
	msg := []byte("client-blob")
	sig, err := r1.PrivateOp(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub := r1.PublicKey()
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatal("worker op must verify")
	}
	after1 := f.countPattern(f.key.P.Bytes())
	if after1 < 2 {
		t.Fatalf("p copies after worker1 op = %d, want >= 2", after1)
	}
	// Worker 2 handshakes: copies grow again — per-worker multiplication.
	if _, err := r2.PrivateOp(msg); err != nil {
		t.Fatal(err)
	}
	after2 := f.countPattern(f.key.P.Bytes())
	if after2 <= after1 {
		t.Fatalf("p copies after worker2 op = %d, want > %d", after2, after1)
	}
}

func TestCloneForAlignedWorkerAddsNoCopies(t *testing.T) {
	f := newFixture(t)
	r := f.load(t, WithAutoAlign())
	var workers []*RSA
	for i := 0; i < 8; i++ {
		w, err := f.k.Fork(f.pid, "worker")
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, r.CloneFor(f.heap.Clone(w)))
	}
	for _, w := range workers {
		if _, err := w.PrivateOp([]byte("blob")); err != nil {
			t.Fatal(err)
		}
	}
	// The protected key stays single-copy across 8 working children.
	for name, pat := range map[string][]byte{
		"d": f.key.D.Bytes(), "p": f.key.P.Bytes(), "q": f.key.Q.Bytes(),
	} {
		if got := f.countPattern(pat); got != 1 {
			t.Errorf("%s copies with 8 aligned workers = %d, want 1", name, got)
		}
	}
}

func TestBigNumAccessors(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	bn := r.Parts()[1] // p
	if bn.Size() != len(f.key.P.Bytes()) {
		t.Fatalf("Size = %d", bn.Size())
	}
	v, err := bn.Bytes()
	if err != nil || !bytes.Equal(v, f.key.P.Bytes()) {
		t.Fatalf("Bytes mismatch: %v", err)
	}
	if bn.Addr() == 0 {
		t.Fatal("Addr should be nonzero")
	}
}

func TestAlignedRegionErrorWhenNotAligned(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	if _, _, err := r.AlignedRegion(); !errors.Is(err, ErrNotAligned) {
		t.Fatalf("AlignedRegion = %v", err)
	}
}

func TestDisableCaching(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	// Build the cache, then disable: the cache must be scrubbed and never
	// rebuilt.
	if _, err := r.PrivateOp([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	if got := f.countPattern(f.key.P.Bytes()); got != 2 {
		t.Fatalf("p copies before disable = %d", got)
	}
	if err := r.DisableCaching(); err != nil {
		t.Fatal(err)
	}
	if r.HasMontCache() {
		t.Fatal("cache should be gone")
	}
	if got := f.countPattern(f.key.P.Bytes()); got != 1 {
		t.Fatalf("p copies after disable = %d, want 1", got)
	}
	if _, err := r.PrivateOp([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if r.HasMontCache() {
		t.Fatal("cache must not be rebuilt")
	}
	// Unlike alignment, the flags clear but the key is NOT static/locked.
	if r.Aligned() {
		t.Fatal("DisableCaching must not align")
	}
	if err := r.Free(true); err != nil {
		t.Fatal(err)
	}
	if err := r.DisableCaching(); err == nil {
		t.Fatal("DisableCaching after free should error")
	}
}

func TestSignPKCS1v15InSimMemory(t *testing.T) {
	f := newFixture(t)
	r := f.load(t)
	msg := []byte("host key proof")
	sig, err := r.SignPKCS1v15(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub := r.PublicKey()
	if err := pub.VerifyPKCS1v15(msg, sig); err != nil {
		t.Fatal(err)
	}
	// Same cache semantics as PrivateOp.
	if !r.HasMontCache() {
		t.Fatal("signing should build the cache")
	}
	// Matches the host-side computation.
	want, err := f.key.SignPKCS1v15(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, want) {
		t.Fatal("in-sim signature != host-side signature")
	}
	if err := r.Free(false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SignPKCS1v15(msg); !errors.Is(err, ErrFreed) {
		t.Fatalf("sign after free = %v", err)
	}
}
