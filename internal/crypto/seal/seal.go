// Package seal keeps a key's aligned heap region encrypted at rest —
// the mechanism behind protect.LevelSealed, following MemShield-style
// software memory encryption and the prekey/derived-sealing-key idiom.
//
// A Region wraps an already-mapped, mlocked span of one process's heap
// (in practice: the aligned region ssl.MemoryAlign built). At rest the
// span holds AES-CTR ciphertext under a per-epoch key derived from a
// 256-bit prekey; an HMAC-SHA256 tag authenticates it. The prekey, the
// epoch counter and the tag live in the Region struct itself — native Go
// memory standing in for the out-of-RAM anchor (debug registers, an HSM)
// that the sealing literature assumes; the simulated physical memory the
// scanner and the attacks see never holds them.
//
// Every private-key operation runs inside a working window:
//
//	unseal (decrypt in place)  →  use  →  reseal (re-encrypt in place)
//
// Reseal advances the epoch, so each window leaves a fresh ciphertext —
// zeroize-on-reseal falls out of encrypting in place: the plaintext
// bytes are overwritten by the new ciphertext, never copied aside.
//
// The two failure sites are fail-closed in the direction the paper's
// discipline demands (leak pages, not contents):
//
//   - SiteUnseal fires before any plaintext byte is written back. The
//     region stays ciphertext and the operation is refused — a transient
//     denial that degrades nothing.
//   - SiteSeal fires before any new ciphertext is written. The open
//     plaintext cannot be left behind, so the region is scrubbed to
//     zeros and destroyed; the key is gone and the caller must degrade
//     GuaranteeSealedAtRest (a refusal-not-plaintext downgrade).
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"

	"memshield/internal/fault"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
	"memshield/internal/scrub"
)

// Errors reported by the package.
var (
	// ErrUnseal marks a refused decrypt: the region is still sealed and
	// intact, and the operation simply did not run.
	ErrUnseal = errors.New("seal: unseal refused")
	// ErrReseal marks a failed re-encrypt: the plaintext window could not
	// be closed, so the region was scrubbed and destroyed.
	ErrReseal = errors.New("seal: reseal failed")
	// ErrDestroyed marks use of a region after a failed reseal destroyed
	// it (or after Invalidate).
	ErrDestroyed = errors.New("seal: region destroyed")
	// ErrTag marks a ciphertext authentication failure on unseal.
	ErrTag = errors.New("seal: ciphertext authentication failed")
	// ErrOpen marks a nested window attempt.
	ErrOpen = errors.New("seal: region already open")
)

// Stats counts a region's window activity.
type Stats struct {
	// Unseals is the number of successful decrypts into a window.
	Unseals int
	// Reseals is the number of successful re-encrypts closing a window.
	Reseals int
}

// Region is one sealed span of a process's heap.
type Region struct {
	heap *libc.Heap
	inj  *fault.Injector
	base vm.VAddr
	n    int

	// Host-side anchor state (never in simulated memory): the prekey the
	// per-epoch sealing keys derive from, the epoch counter, and the
	// HMAC tag of the current ciphertext.
	prekey [32]byte
	epoch  uint64
	tag    [32]byte

	// Window state, host-side too, cleared after every pass by
	// wipeWindow: the region's bytes as read, the epoch's derived keys
	// and IV, the HMAC key pad and result, and the one SHA-256 state every
	// HMAC runs on. A window allocates none of it.
	buf    []byte
	encKey [32]byte
	iv     [aes.BlockSize]byte
	tagKey [32]byte
	epochB [8]byte
	pad    [sha256.BlockSize]byte
	sum    [sha256.Size]byte
	sha    hash.Hash

	open      bool
	destroyed bool
	cause     error
	stats     Stats
}

// An Option configures New.
type Option func(*Region)

// WithStartEpoch starts the region's epoch counter at e instead of 0.
// Re-provisioning (internal/supervise) uses it to keep (prekey, epoch)
// pairs globally unique across provisioning generations: generation g
// seals under a g-derived prekey AND epochs at or above g<<32, so even a
// caller that mistakenly reused a prekey stream could never repeat an
// AES-CTR keystream from an earlier generation.
func WithStartEpoch(e uint64) Option {
	return func(r *Region) { r.epoch = e }
}

// New seals the n bytes at base in place: the current plaintext contents
// are encrypted under the starting epoch (0 unless WithStartEpoch says
// otherwise) of a fresh prekey drawn from prekeyRand (pass a
// deterministic reader for reproducible runs). inj may be nil.
func New(heap *libc.Heap, inj *fault.Injector, base vm.VAddr, n int, prekeyRand io.Reader, opts ...Option) (*Region, error) {
	if heap == nil || n <= 0 {
		return nil, fmt.Errorf("seal: bad region (%d bytes)", n)
	}
	r := &Region{heap: heap, inj: inj, base: base, n: n, buf: make([]byte, n), sha: sha256.New()}
	for _, opt := range opts {
		opt(r)
	}
	if _, err := io.ReadFull(prekeyRand, r.prekey[:]); err != nil {
		return nil, fmt.Errorf("seal: prekey: %w", err)
	}
	if err := r.encryptInPlace(); err != nil {
		return nil, err
	}
	return r, nil
}

// The derivation labels: HMAC(prekey, label || epoch) gives each of the
// epoch's sealing keys.
var (
	labelEnc = []byte("memshield-seal-enc")
	labelIV  = []byte("memshield-seal-iv")
	labelTag = []byte("memshield-seal-tag")
)

// hmacSum sets r.sum = HMAC-SHA256(key, msg...) (RFC 2104), that is
// H(key⊕opad || H(key⊕ipad || msg...)), on the region's own digest and
// pad, so it allocates nothing; key is at most one block. wipeWindow
// clears what it leaves.
func (r *Region) hmacSum(key []byte, msg ...[]byte) {
	for i := range r.pad {
		r.pad[i] = 0x36
	}
	for i, b := range key {
		r.pad[i] ^= b
	}
	r.sha.Reset()
	r.sha.Write(r.pad[:])
	for _, m := range msg {
		r.sha.Write(m)
	}
	r.sha.Sum(r.sum[:0])
	for i := range r.pad {
		r.pad[i] ^= 0x36 ^ 0x5c
	}
	r.sha.Reset()
	r.sha.Write(r.pad[:])
	r.sha.Write(r.sum[:])
	r.sha.Sum(r.sum[:0])
}

// derive fills dst with the epoch's sealing-key material for label:
// HMAC(prekey, label || epoch), truncated to len(dst).
func (r *Region) derive(dst, label []byte) {
	binary.BigEndian.PutUint64(r.epochB[:], r.epoch)
	r.hmacSum(r.prekey[:], label, r.epochB[:])
	copy(dst, r.sum[:])
}

// xorKeystream applies the epoch's AES-CTR keystream to r.buf in place —
// one call encrypts, the next decrypts. The AES key schedule that
// aes.NewCipher builds is the one copy of the epoch key this package
// cannot scrub.
func (r *Region) xorKeystream() error {
	r.derive(r.encKey[:], labelEnc)
	r.derive(r.iv[:], labelIV)
	block, err := aes.NewCipher(r.encKey[:])
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	cipher.NewCTR(block, r.iv[:]).XORKeyStream(r.buf, r.buf)
	return nil
}

// mac sets r.sum to the epoch's tag of the ciphertext in r.buf.
func (r *Region) mac() {
	r.derive(r.tagKey[:], labelTag)
	r.hmacSum(r.tagKey[:], r.buf)
}

// wipeWindow clears the window state: the region's bytes, the derived
// keys and IV, the pad and HMAC result, and the digest's chaining state.
func (r *Region) wipeWindow() {
	scrub.Bytes(r.buf)
	scrub.Bytes(r.encKey[:])
	scrub.Bytes(r.iv[:])
	scrub.Bytes(r.tagKey[:])
	scrub.Bytes(r.pad[:])
	scrub.Bytes(r.sum[:])
	r.sha.Reset()
}

// encryptInPlace reads the region's plaintext into r.buf, overwrites the
// region with the current epoch's ciphertext, and records the tag. r.buf
// holds the plaintext, then the ciphertext, and is scrubbed on every exit
// path.
func (r *Region) encryptInPlace() error {
	defer r.wipeWindow()
	if err := r.heap.ReadInto(r.base, r.buf); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	if err := r.xorKeystream(); err != nil {
		return err
	}
	if err := r.heap.Write(r.base, r.buf); err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	r.mac()
	r.tag = r.sum
	return nil
}

// unseal decrypts the region in place, opening a window. On any failure
// the region still holds the untouched ciphertext.
func (r *Region) unseal() error {
	if r.destroyed {
		return fmt.Errorf("%w (%v)", ErrDestroyed, r.cause)
	}
	if r.open {
		return ErrOpen
	}
	if err := r.inj.Fail(fault.SiteUnseal); err != nil {
		return fmt.Errorf("%w: %w", ErrUnseal, err)
	}
	defer r.wipeWindow()
	if err := r.heap.ReadInto(r.base, r.buf); err != nil {
		return fmt.Errorf("%w: %w", ErrUnseal, err)
	}
	if r.mac(); !hmac.Equal(r.sum[:], r.tag[:]) {
		return fmt.Errorf("%w: %w", ErrUnseal, ErrTag)
	}
	if err := r.xorKeystream(); err != nil {
		return fmt.Errorf("%w: %w", ErrUnseal, err)
	}
	if err := r.heap.Write(r.base, r.buf); err != nil {
		return fmt.Errorf("%w: %w", ErrUnseal, err)
	}
	r.open = true
	r.stats.Unseals++
	return nil
}

// reseal closes the window: the epoch advances and the plaintext is
// overwritten by the new epoch's ciphertext. If the re-encrypt is denied
// (SiteSeal) the plaintext must not survive, so the region is zeroed and
// destroyed — the fail-closed trade of the key's availability for its
// secrecy.
func (r *Region) reseal() error {
	if !r.open {
		return fmt.Errorf("seal: reseal of a closed region")
	}
	if err := r.inj.Fail(fault.SiteSeal); err != nil {
		return r.destroy(fmt.Errorf("%w: %w", ErrReseal, err))
	}
	r.epoch++
	if err := r.encryptInPlace(); err != nil {
		return r.destroy(fmt.Errorf("%w: %w", ErrReseal, err))
	}
	r.open = false
	r.stats.Reseals++
	return nil
}

// destroy scrubs the open plaintext and marks the region unusable. The
// zeroing write is a plain VM write (not an injectable site), so the
// scrub itself cannot be denied; if the region's mapping is somehow gone
// the pages are already out of reach of the process.
func (r *Region) destroy(cause error) error {
	err := r.heap.Zero(r.base, r.n)
	r.open = false
	r.destroyed = true
	r.cause = cause
	if err != nil {
		return errors.Join(cause, err)
	}
	return cause
}

// WithOpen runs fn inside a working window: unseal, fn, reseal. An
// unseal refusal skips fn entirely. A reseal failure is joined onto fn's
// error so callers observe both the operation's outcome and the
// destruction (check with errors.Is(err, seal.ErrReseal)).
//
// The window marker declares the sealed-window contract the sealwindow
// analyzer enforces: plaintext key bytes may only be read inside fn, and
// nothing fn reads may alias past its return.
//
//memlint:window param=0
func (r *Region) WithOpen(fn func() error) error {
	if err := r.unseal(); err != nil {
		return err
	}
	ferr := fn()
	if rerr := r.reseal(); rerr != nil {
		return errors.Join(ferr, rerr)
	}
	return ferr
}

// Invalidate marks the region destroyed without touching memory — for
// teardown paths that scrub and unmap the span themselves.
func (r *Region) Invalidate() {
	if !r.destroyed {
		r.destroyed = true
		r.cause = errors.New("seal: invalidated")
	}
}

// Destroyed reports whether the region has been destroyed, and why.
func (r *Region) Destroyed() (bool, error) { return r.destroyed, r.cause }

// Open reports whether a working window is currently open.
func (r *Region) Open() bool { return r.open }

// Epoch returns the current sealing epoch (one reseal = one epoch).
func (r *Region) Epoch() uint64 { return r.epoch }

// Stats returns a snapshot of the window counters.
func (r *Region) Stats() Stats { return r.stats }
