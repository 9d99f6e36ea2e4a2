// Package ssl simulates the OpenSSL 0.9.7-era RSA machinery the paper
// patches, with every byte of private-key material living inside the
// simulated machine's physical memory (on the process heap from package
// libc), where the scanner and the disclosure attacks can see it.
//
// The modelled copy sources match the paper's analysis:
//
//   - D2iPrivateKey (d2i_PrivateKey + d2i_RSAPrivateKey) materializes the six
//     key parts as separately malloc'd BIGNUM buffers.
//   - The first private-key operation on an RSA object with
//     FlagCachePrivate set (OpenSSL's default) builds Montgomery contexts
//     that embed fresh copies of P and Q (RSA_eay_mod_exp's
//     _method_mod_p/_method_mod_q caches).
//   - Freeing without clearing (plain Free) leaves all of it readable in
//     heap chunks and, later, in unallocated pages.
//
// MemoryAlign is the paper's RSA_memory_align (Appendix 8.3/8.5): it moves
// all six parts onto one page-aligned, mlock'd region, zeroes and frees
// their old locations, marks them static, and clears the cache flags so no
// further copies are ever made. Combined with fork's copy-on-write, the key
// then exists exactly once in physical memory no matter how many server
// processes run.
package ssl

import (
	"errors"
	"fmt"
	"io"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/fault"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
	"memshield/internal/mem"
	"memshield/internal/scrub"
)

// Flags mirror OpenSSL's RSA flag bits that matter to the paper.
type Flags uint32

// RSA object flags.
const (
	// FlagCachePrivate enables the private-key Montgomery cache
	// (RSA_FLAG_CACHE_PRIVATE). Set by default, cleared by MemoryAlign.
	FlagCachePrivate Flags = 1 << iota
	// FlagCachePublic is the public-key counterpart.
	FlagCachePublic
	// FlagStaticData marks key data as living in the aligned static
	// region (BN_FLG_STATIC_DATA): individual BIGNUMs must not be freed.
	FlagStaticData
)

// Errors reported by the package.
var (
	ErrFreed      = errors.New("ssl: RSA object already freed")
	ErrNoPrivate  = errors.New("ssl: missing private key material")
	ErrNotAligned = errors.New("ssl: key not aligned")
)

// BigNum is an OpenSSL BIGNUM whose digits live in simulated process memory.
type BigNum struct {
	heap   *libc.Heap
	ptr    vm.VAddr
	size   int
	static bool
}

// newBigNum mallocs a buffer and stores value (big-endian) in it.
func newBigNum(h *libc.Heap, value []byte) (BigNum, error) {
	if len(value) == 0 {
		value = []byte{0}
	}
	ptr, err := h.Malloc(len(value))
	if err != nil {
		return BigNum{}, err
	}
	if err := h.Write(ptr, value); err != nil {
		return BigNum{}, errors.Join(err, h.FreeZero(ptr))
	}
	return BigNum{heap: h, ptr: ptr, size: len(value)}, nil
}

// Bytes reads the big-endian value back from simulated memory.
//
//memlint:source result=0
func (b *BigNum) Bytes() ([]byte, error) {
	return b.heap.Read(b.ptr, b.size)
}

// ReadInto is Bytes into the caller's buffer: it reads the value into the
// first Size bytes of dst, which must hold them, and returns that prefix.
// On error the prefix is cleared.
//
//memlint:source result=0
func (b *BigNum) ReadInto(dst []byte) ([]byte, error) {
	v := dst[:b.size]
	if err := b.heap.ReadInto(b.ptr, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Addr returns the virtual address of the digit buffer (for tests).
func (b *BigNum) Addr() vm.VAddr { return b.ptr }

// Size returns the buffer size in bytes.
func (b *BigNum) Size() int { return b.size }

// Static reports whether the BIGNUM lives in the aligned region.
func (b *BigNum) Static() bool { return b.static }

// RSA is an OpenSSL RSA object: public key host-side (public anyway),
// private parts as in-simulation BIGNUMs.
type RSA struct {
	heap *libc.Heap
	pub  rsakey.PublicKey

	// The six parts are held by value, so an RSA, allocated on every
	// fork and reload, is one allocation in the 288-byte size class. A
	// part whose heap is nil is missing.
	d, p, q, dp, dq, qinv BigNum

	flags Flags
	freed bool

	// Montgomery cache buffers (copies of P and Q), 0 when absent.
	montP, montQ vm.VAddr

	// Aligned region from MemoryAlign.
	aligned      vm.VAddr
	alignedPages int

	// sealed, when non-nil, keeps the aligned region encrypted at rest
	// (protect.LevelSealed); every private operation runs inside its
	// unseal→use→reseal window.
	sealed *seal.Region
}

// LoadOption configures D2iPrivateKey. It takes and returns the
// configuration by value, so a load's configuration never leaves its
// stack.
type LoadOption func(loadConfig) loadConfig

type loadConfig struct {
	autoAlign bool
}

// WithAutoAlign applies the paper's library-level patch: d2i_PrivateKey
// calls RSA_memory_align as soon as the RSA structure is filled in.
func WithAutoAlign() LoadOption {
	return func(c loadConfig) loadConfig {
		c.autoAlign = true
		return c
	}
}

// D2iPrivateKey loads a PEM-encoded private key into a process: the PEM
// text and the decoded DER transit the process heap (as in BIO/PEM_read),
// and the six key parts become heap BIGNUMs. The transient PEM/DER buffers
// are cleansed before release, matching OpenSSL's OPENSSL_cleanse hygiene in
// the PEM layer; the BIGNUMs themselves are the durable copies the paper
// tracks.
//
// On the host side the PEM is decoded once, into one DER buffer that is
// both the bytes planted as the simulated DER copy and the source of every
// part: the BIGNUMs are filled from views into it, and only N and E, which
// the RSA keeps, become big.Ints, with R² mod N beside them
// (rsakey.NewPublicKey). A key of at most 512 bits is validated on the
// fixed-width kernels (rsakey.ParseParts).
//
// The load is fail-closed: on any error — a malloc that fails mid-way, a
// refused mlock under WithAutoAlign — every buffer built so far (PEM text,
// DER bytes, finished BIGNUMs) is cleansed before the error returns, so a
// failed load never strands scannable key material on the heap, and the
// host-side DER buffer is scrubbed on every path.
func D2iPrivateKey(h *libc.Heap, pemData []byte, opts ...LoadOption) (*RSA, error) {
	var cfg loadConfig
	for _, o := range opts {
		cfg = o(cfg)
	}
	// The file-read buffer: PEM text on the heap.
	pemBuf, err := h.Malloc(len(pemData))
	if err != nil {
		return nil, fmt.Errorf("ssl: d2i: %w", err)
	}
	if err := h.Write(pemBuf, pemData); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	der, parts, err := rsakey.DecodePEM(pemData)
	if err != nil {
		scrub.Bytes(der)
		// A failed scrub would leave PEM text live in simulated memory:
		// surface it alongside the parse error rather than dropping it.
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	return loadKey(h, pemBuf, der, &parts, cfg)
}

// loadKey is D2iPrivateKey after a successful parse: it plants der, the
// decoded DER whose views parts holds, and the six BIGNUMs on h, frees the
// PEM buffer at pemBuf and scrubs der on every path.
func loadKey(h *libc.Heap, pemBuf vm.VAddr, der []byte, parts *rsakey.Parts, cfg loadConfig) (*RSA, error) {
	// The base64-decoded DER buffer (d2i input) — contains d, p, q raw.
	// The decoder accepts only canonical DER, so these are the bytes
	// MarshalDER would give for the key; derBuf is the copy the
	// experiments scan for.
	defer scrub.Bytes(der)
	derBuf, err := h.Malloc(len(der))
	if err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), h.FreeZero(pemBuf))
	}
	if err := h.Write(derBuf, der); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err),
			h.FreeZero(derBuf), h.FreeZero(pemBuf))
	}
	r := &RSA{
		heap:  h,
		pub:   rsakey.NewPublicKey(parts.N, parts.E),
		flags: FlagCachePrivate | FlagCachePublic,
	}
	built := [...]struct {
		dst *BigNum
		val []byte
	}{
		{&r.d, parts.D}, {&r.p, parts.P}, {&r.q, parts.Q},
		{&r.dp, parts.Dp}, {&r.dq, parts.Dq}, {&r.qinv, parts.Qinv},
	}
	for i, part := range built {
		bn, err := newBigNum(h, part.val)
		if err != nil {
			errs := []error{fmt.Errorf("ssl: d2i: %w", err)}
			for _, done := range built[:i] {
				errs = append(errs, h.FreeZero(done.dst.ptr))
			}
			errs = append(errs, h.FreeZero(derBuf), h.FreeZero(pemBuf))
			return nil, errors.Join(errs...)
		}
		*part.dst = bn
	}
	// PEM-layer hygiene: cleanse the transient buffers.
	if err := h.FreeZero(derBuf); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err),
			r.Free(true), h.FreeZero(pemBuf))
	}
	if err := h.FreeZero(pemBuf); err != nil {
		return nil, errors.Join(fmt.Errorf("ssl: d2i: %w", err), r.Free(true))
	}
	if cfg.autoAlign {
		if err := r.MemoryAlign(); err != nil {
			// MemoryAlign scrubs on its own mid-move failures (r.freed is
			// then already set); a refusal before any move leaves the
			// unaligned parts intact — cleanse them here.
			errs := []error{err}
			if !r.freed {
				errs = append(errs, r.Free(true))
			}
			return nil, errors.Join(errs...)
		}
	}
	return r, nil
}

// Flags returns the object's flag bits.
func (r *RSA) Flags() Flags { return r.flags }

// Aligned reports whether MemoryAlign has been applied.
func (r *RSA) Aligned() bool { return r.flags&FlagStaticData != 0 }

// AlignedRegion returns the aligned region's base address and page count.
func (r *RSA) AlignedRegion() (vm.VAddr, int, error) {
	if !r.Aligned() {
		return 0, 0, ErrNotAligned
	}
	return r.aligned, r.alignedPages, nil
}

// PublicKey returns the (host-side) public half.
func (r *RSA) PublicKey() rsakey.PublicKey { return r.pub }

// Parts returns the six private BIGNUMs in PKCS#1 order (d, p, q, dp, dq,
// qinv), for tests and the scanner's ground truth.
func (r *RSA) Parts() []*BigNum {
	parts := r.parts()
	return parts[:]
}

// parts is Parts without the slice's allocation.
func (r *RSA) parts() [6]*BigNum {
	return [6]*BigNum{&r.d, &r.p, &r.q, &r.dp, &r.dq, &r.qinv}
}

// HasMontCache reports whether the private Montgomery cache exists.
func (r *RSA) HasMontCache() bool { return r.montP != 0 }

// MemoryAlign is the paper's RSA_memory_align:
//
//  1. posix_memalign one page-aligned region big enough for all six parts,
//  2. mlock it,
//  3. copy the parts in, zero and free their old buffers,
//  4. mark the BIGNUMs BN_FLG_STATIC_DATA,
//  5. clear RSA_FLAG_CACHE_PRIVATE | RSA_FLAG_CACHE_PUBLIC (and scrub any
//     cache that already exists).
//
// Afterwards the key occupies exactly one mlock'd page region that no code
// path ever writes, so COW keeps it single-copy across forks and it can
// never reach swap.
//
// MemoryAlign fails closed. A refusal before any part moves (posix_memalign
// fails, or mlock is denied — the region is then freed, never left behind
// as an unlocked mapping pretending to be protection) leaves the key's
// unaligned layout untouched. A failure after parts have started moving
// cannot be rolled back (their old buffers are already cleansed), so the
// object scrubs everything — aligned region, unmoved parts, Montgomery
// cache — and marks itself freed: better no key than a key whose
// protection claim is false.
func (r *RSA) MemoryAlign() error {
	if r.freed {
		return ErrFreed
	}
	if r.d.heap == nil {
		return ErrNoPrivate
	}
	if r.Aligned() {
		return nil
	}
	total := r.partBytes()
	pages := (total + mem.PageSize - 1) / mem.PageSize
	base, err := r.heap.Memalign(pages)
	if err != nil {
		return fmt.Errorf("ssl: memory align: %w", err)
	}
	if err := r.heap.Mlock(base); err != nil {
		return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.heap.Free(base))
	}
	off := vm.VAddr(0)
	for _, bn := range r.parts() {
		if err := r.movePart(bn, base+off); err != nil {
			return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.scrapAlign(base))
		}
		off += vm.VAddr(bn.size)
	}
	if err := r.dropMontCache(); err != nil {
		return errors.Join(fmt.Errorf("ssl: memory align: %w", err), r.scrapAlign(base))
	}
	r.aligned = base
	r.alignedPages = pages
	r.flags &^= FlagCachePrivate | FlagCachePublic
	r.flags |= FlagStaticData
	return nil
}

// movePart copies one BIGNUM into the aligned region at dst and cleanses
// its old buffer. The BIGNUM is rebound to dst as soon as the old buffer
// is zeroed: a free that fails after that has still dropped the chunk
// (libc forgets an emptied arena before the kernel scrubs its pages), so
// the part must not own it any more. A move that fails earlier leaves the
// part owning its old buffer.
func (r *RSA) movePart(bn *BigNum, dst vm.VAddr) error {
	val, err := bn.Bytes()
	defer scrub.Bytes(val)
	if err != nil {
		return err
	}
	if err := r.heap.Write(dst, val); err != nil {
		return err
	}
	old := bn.ptr
	n, err := r.heap.SizeOf(old)
	if err != nil {
		return err
	}
	if err := r.heap.Zero(old, n); err != nil {
		return err
	}
	bn.ptr = dst
	bn.static = true
	return r.heap.Free(old)
}

// scrapAlign is MemoryAlign's scrub-and-refuse path once parts have
// started moving into the region at base: it destroys the region (which
// already holds key bytes), cleanses the old buffers of the parts not yet
// rebound, drops any Montgomery cache, and marks the object freed. All
// steps are attempted; failures are joined.
func (r *RSA) scrapAlign(base vm.VAddr) error {
	var errs []error
	if n, err := r.heap.SizeOf(base); err == nil {
		errs = append(errs, r.heap.Zero(base, n))
	}
	errs = append(errs, r.heap.Free(base))
	for _, bn := range r.parts() {
		if !bn.static {
			errs = append(errs, r.heap.FreeZero(bn.ptr))
		}
	}
	errs = append(errs, r.dropMontCache())
	r.freed = true
	return errors.Join(errs...)
}

// dropMontCache scrubs and frees the Montgomery cache buffers if present.
func (r *RSA) dropMontCache() error {
	for _, ptr := range []vm.VAddr{r.montP, r.montQ} {
		if ptr == 0 {
			continue
		}
		if err := r.heap.FreeZero(ptr); err != nil {
			return err
		}
	}
	r.montP, r.montQ = 0, 0
	return nil
}

// ensureMontCache builds the private Montgomery cache on first use when
// FlagCachePrivate is set: two heap buffers holding byte-exact copies of P
// and Q (the moduli embedded in BN_MONT_CTX). These are the per-process
// copies that multiply with Apache's worker count. P and Q transit ctx's
// buffer, which is scrubbed on every path.
func (r *RSA) ensureMontCache(ctx *bnCtx) error {
	if r.flags&FlagCachePrivate == 0 || r.montP != 0 {
		return nil
	}
	buf := ctx.buf[:]
	if n := r.p.size + r.q.size; n > len(buf) {
		buf = make([]byte, n)
	}
	pBytes, err := r.p.ReadInto(buf)
	defer scrub.Bytes(pBytes)
	if err != nil {
		return err
	}
	qBytes, err := r.q.ReadInto(buf[len(pBytes):])
	defer scrub.Bytes(qBytes)
	if err != nil {
		return err
	}
	r.montP, err = r.heap.Malloc(len(pBytes))
	if err != nil {
		return err
	}
	if err := r.heap.Write(r.montP, pBytes); err != nil {
		return err
	}
	r.montQ, err = r.heap.Malloc(len(qBytes))
	if err != nil {
		return err
	}
	return r.heap.Write(r.montQ, qBytes)
}

// SealAtRest seals the aligned region (internal/crypto/seal): from here on
// the six key parts are ciphertext between operations, and PrivateOp /
// SignPKCS1v15 open a working window around each use. Requires MemoryAlign
// first — sealing individually malloc'd BIGNUMs would still leave the
// Montgomery cache and heap churn unprotected, so only the single-region
// layout is sealable. The prekey is drawn from prekeyRand; inj (may be
// nil) arms the SiteUnseal/SiteSeal fault sites. Options pass through to
// seal.New (re-provisioning sets the starting epoch per generation).
func (r *RSA) SealAtRest(prekeyRand io.Reader, inj *fault.Injector, opts ...seal.Option) error {
	if r.freed {
		return ErrFreed
	}
	if !r.Aligned() {
		return ErrNotAligned
	}
	if r.sealed != nil {
		return nil
	}
	region, err := seal.New(r.heap, inj, r.aligned, r.partBytes(), prekeyRand, opts...)
	if err != nil {
		return fmt.Errorf("ssl: seal: %w", err)
	}
	r.sealed = region
	return nil
}

// SealedAtRest reports whether the key is sealed between operations.
func (r *RSA) SealedAtRest() bool { return r.sealed != nil }

// SealCompromised reports whether a failed reseal destroyed the sealed
// region (the key is gone; its pages were scrubbed, never left plaintext),
// and the original cause.
func (r *RSA) SealCompromised() (bool, error) {
	if r.sealed == nil {
		return false, nil
	}
	return r.sealed.Destroyed()
}

// SealStats returns the sealed region's window counters (zero if unsealed).
func (r *RSA) SealStats() seal.Stats {
	if r.sealed == nil {
		return seal.Stats{}
	}
	return r.sealed.Stats()
}

// partBytes returns the six parts' total size in bytes.
func (r *RSA) partBytes() int {
	n := 0
	for _, bn := range r.parts() {
		n += bn.size
	}
	return n
}

// ctxBytes holds the six parts of a key of up to 512 bits: d's 64 bytes
// and five of 32 for p, q, dP, dQ and qInv.
const ctxBytes = 64 + 5*32

// bnCtx is the host side of one private operation, as OpenSSL's BN_CTX
// holds an operation's temporaries: the key parts, read out of simulated
// memory one after another into buf, and where each one ends. A key whose
// parts do not fit is read into a heap buffer instead, scrubbed the same
// way. ensureMontCache and signCRT scrub what they read before they
// return, so a caller can check that nothing of the key survives the
// operation. The context holds offsets, not slices of buf: a context that
// pointed into itself would escape to the heap.
type bnCtx struct {
	buf [ctxBytes]byte
	end [6]int // in PKCS#1 order: d, p, q, dP, dQ, qInv
}

// withKey runs the CRT private operation on em with the key read out of
// simulated memory into ctx, inside the seal window when the key is
// sealed at rest. The key parts' host buffers are scrubbed once the
// operation is done; in the sealed path that happens before the window
// closes, the window being exactly where a missed host-side copy would
// hide.
func (r *RSA) withKey(em []byte, ctx *bnCtx) ([]byte, error) {
	if r.freed {
		return nil, ErrFreed
	}
	if r.d.heap == nil {
		return nil, ErrNoPrivate
	}
	if r.sealed == nil {
		if err := r.ensureMontCache(ctx); err != nil {
			return nil, err
		}
		return r.signCRT(em, ctx)
	}
	var out []byte
	err := r.sealed.WithOpen(func() error {
		var ferr error
		out, ferr = r.signCRT(em, ctx)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// signCRT reads the six key parts into ctx, in PKCS#1 order, and passes
// the five CRT parts to rsakey.SignCRTParts, which loads them straight
// into its kernel's workspace. d takes no part in the CRT computation,
// but it is read like the other five: a private operation's simulated
// reads, and the swap-ins they fault, cover the whole key. Every part is
// scrubbed on every path out.
func (r *RSA) signCRT(em []byte, ctx *bnCtx) ([]byte, error) {
	buf := ctx.buf[:]
	if n := r.partBytes(); n > len(buf) {
		buf = make([]byte, n)
	}
	d, err := ctx.read(buf, 0, &r.d)
	defer scrub.Bytes(d)
	if err != nil {
		return nil, err
	}
	p, err := ctx.read(buf, 1, &r.p)
	defer scrub.Bytes(p)
	if err != nil {
		return nil, err
	}
	q, err := ctx.read(buf, 2, &r.q)
	defer scrub.Bytes(q)
	if err != nil {
		return nil, err
	}
	dp, err := ctx.read(buf, 3, &r.dp)
	defer scrub.Bytes(dp)
	if err != nil {
		return nil, err
	}
	dq, err := ctx.read(buf, 4, &r.dq)
	defer scrub.Bytes(dq)
	if err != nil {
		return nil, err
	}
	qinv, err := ctx.read(buf, 5, &r.qinv)
	defer scrub.Bytes(qinv)
	if err != nil {
		return nil, err
	}
	return rsakey.SignCRTParts(&r.pub, em, p, q, dp, dq, qinv)
}

// read reads bn into buf as part i, right after part i-1, and records
// where it ends.
func (c *bnCtx) read(buf []byte, i int, bn *BigNum) ([]byte, error) {
	start := 0
	if i > 0 {
		start = c.end[i-1]
	}
	v, err := bn.ReadInto(buf[start:])
	c.end[i] = start + len(v)
	return v, err
}

// PrivateOp computes input^d mod n via CRT, reading every key part out of
// simulated memory (so a corrupted or scrubbed key genuinely fails). It is
// the primitive under both "decrypt the client's session-key blob" and
// "sign". For a key of up to 512 bits it allocates only its result: the
// parts are read into a context on its stack.
func (r *RSA) PrivateOp(input []byte) ([]byte, error) {
	var ctx bnCtx
	return r.withKey(input, &ctx)
}

// SignPKCS1v15 produces an RSASSA-PKCS1-v1_5/SHA-256 signature using the
// key bytes in simulated memory (the host-key proof path): the encoded
// digest goes through PrivateOp, with the same cache behaviour.
func (r *RSA) SignPKCS1v15(msg []byte) ([]byte, error) {
	em, err := rsakey.EncodePKCS1v15(msg, (r.pub.N.BitLen()+7)/8)
	if err != nil {
		return nil, err
	}
	return r.PrivateOp(em)
}

// DisableCaching clears RSA_FLAG_CACHE_PRIVATE and RSA_FLAG_CACHE_PUBLIC
// without aligning the key, scrubbing any Montgomery cache that already
// exists. On its own this removes only the per-use copy amplification (an
// ablation ingredient); the paper's full measures also relocate and lock
// the key itself.
func (r *RSA) DisableCaching() error {
	if r.freed {
		return ErrFreed
	}
	if err := r.dropMontCache(); err != nil {
		return err
	}
	r.flags &^= FlagCachePrivate | FlagCachePublic
	return nil
}

// CloneFor returns a handle on the same RSA object for a forked child
// process, rebound to the child's heap. Virtual addresses are unchanged
// (fork preserves them); the physical frames stay COW-shared until someone
// writes. Flags and any existing Montgomery cache come along; a child whose
// parent never performed a private operation will build its own cache on
// first use — the per-worker copy multiplication seen in Apache prefork.
func (r *RSA) CloneFor(h *libc.Heap) *RSA {
	c := &RSA{
		heap:         h,
		pub:          r.pub, // immutable: every clone shares N and E
		d:            r.d,
		p:            r.p,
		q:            r.q,
		dp:           r.dp,
		dq:           r.dq,
		qinv:         r.qinv,
		flags:        r.flags,
		montP:        r.montP,
		montQ:        r.montQ,
		aligned:      r.aligned,
		alignedPages: r.alignedPages,
	}
	for _, bn := range c.parts() {
		if bn.heap != nil {
			bn.heap = h
		}
	}
	return c
}

// Free releases the RSA object. With clear=true it behaves like
// BN_clear_free / OPENSSL_cleanse (scrub then free); with clear=false it is
// the plain BN_free path whose leftovers the paper's attacks harvest.
func (r *RSA) Free(clear bool) error {
	if r.freed {
		return ErrFreed
	}
	if r.Aligned() {
		// The parts live in the single aligned region.
		if clear {
			if err := r.heap.Zero(r.aligned, r.partBytes()); err != nil {
				return err
			}
		}
		if err := r.heap.Free(r.aligned); err != nil {
			return err
		}
	} else {
		for _, bn := range r.parts() {
			if bn.heap == nil {
				continue
			}
			var err error
			if clear {
				err = r.heap.FreeZero(bn.ptr)
			} else {
				err = r.heap.Free(bn.ptr)
			}
			if err != nil {
				return err
			}
		}
		if clear {
			if err := r.dropMontCache(); err != nil {
				return err
			}
		} else {
			for _, ptr := range []vm.VAddr{r.montP, r.montQ} {
				if ptr == 0 {
					continue
				}
				if err := r.heap.Free(ptr); err != nil {
					return err
				}
			}
			r.montP, r.montQ = 0, 0
		}
	}
	if r.Aligned() && r.montP != 0 {
		// Aligned objects never hold a cache, but guard anyway.
		if err := r.dropMontCache(); err != nil {
			return err
		}
	}
	if r.sealed != nil {
		// The region's bytes were just zeroed (or deliberately abandoned
		// as ciphertext on the clear=false path); either way no further
		// window may open on the unmapped span.
		r.sealed.Invalidate()
	}
	r.freed = true
	return nil
}
