// Package rsakey implements real RSA key generation, CRT signing and
// verification over math/big, plus PKCS#1 DER and PEM serialization.
//
// The keys are genuine: P and Q are probable primes, D is the modular
// inverse of E, and signatures verify. What the simulation leaks and
// protects is therefore actual working key material — exactly the six parts
// the paper enumerates (d, p, q, d mod p-1, d mod q-1, q^-1 mod p), of which
// d, p, q and the PEM file are the disclosure-equivalent "copies".
package rsakey

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"

	"memshield/internal/crypto/der"
	"memshield/internal/crypto/pemfile"
	"memshield/internal/scrub"
)

// PEMType is the armor label of a PKCS#1 private key.
const PEMType = "RSA PRIVATE KEY"

// DefaultExponent is the conventional public exponent.
const DefaultExponent = 65537

// Errors reported by the package.
var (
	ErrBadKey       = errors.New("rsakey: invalid key")
	ErrMsgTooLong   = errors.New("rsakey: message representative out of range")
	ErrBadSignature = errors.New("rsakey: signature does not verify")
)

// The ways a key fails validation, in the order Validate and the kernel
// validation in mont.go check them.
var (
	errSmallPrime = fmt.Errorf("%w: p or q not above 1", ErrBadKey)
	errModulus    = fmt.Errorf("%w: p*q != n", ErrBadKey)
	errEDModP     = fmt.Errorf("%w: e*d != 1 mod p-1", ErrBadKey)
	errEDModQ     = fmt.Errorf("%w: e*d != 1 mod q-1", ErrBadKey)
	errDp         = fmt.Errorf("%w: dp != d mod p-1", ErrBadKey)
	errDq         = fmt.Errorf("%w: dq != d mod q-1", ErrBadKey)
	errQinv       = fmt.Errorf("%w: q*qinv != 1 mod p", ErrBadKey)
)

// PublicKey is the (e, N) pair. NewPublicKey, which builds the public half
// of every generated, parsed and loaded key, also stores R² mod N for
// PublicOp's kernel beside N. N and E are not changed in place once a key
// is built.
type PublicKey struct {
	N *big.Int
	E *big.Int
	// pre holds N and R² mod N when NewPublicKey built the key and N fits
	// the public kernel; nil otherwise.
	pre *pubPre
}

// NewPublicKey returns the public key with the big-endian modulus n and
// exponent e. When N is odd, above 1 and at most 512 bits, R² mod N is
// computed here, once per key, so PublicOp need not compute it on every
// call; N is public, so the value needs no scrubbing. N, its words and
// that value then share one allocation.
func NewPublicKey(n, e []byte) PublicKey {
	var nl limbs8
	if !loadBytes(nl[:], n) || nl[0]&1 == 0 || nl == (limbs8{1}) {
		return PublicKey{N: new(big.Int).SetBytes(n), E: new(big.Int).SetBytes(e)}
	}
	pre := new(pubPre)
	storeWords(pre.w[:], nl[:])
	rr8(&pre.r2, &nl, montInv(nl[0]))
	return PublicKey{N: pre.n.SetBits(pre.w[:]), E: pre.e.SetBytes(e), pre: pre}
}

// PrivateKey carries the full CRT private key.
type PrivateKey struct {
	PublicKey
	D    *big.Int // private exponent
	P    *big.Int // prime 1
	Q    *big.Int // prime 2
	Dp   *big.Int // d mod (p-1)
	Dq   *big.Int // d mod (q-1)
	Qinv *big.Int // q^-1 mod p
}

// Generate creates an RSA key of the given modulus size in bits, drawing
// randomness from r (pass a deterministic reader for reproducible
// experiments). Bits must be at least 128 and even.
func Generate(r io.Reader, bits int) (*PrivateKey, error) {
	return generate(r, bits, genPrime)
}

// generate is Generate with the prime search as a parameter, so a test can
// run it on a reference search.
func generate(r io.Reader, bits int, prime func(io.Reader, int) (*big.Int, error)) (*PrivateKey, error) {
	if bits < 128 || bits%2 != 0 {
		return nil, fmt.Errorf("rsakey: bad modulus size %d", bits)
	}
	for {
		p, err := prime(r, bits/2)
		if err != nil {
			return nil, fmt.Errorf("rsakey: prime generation: %w", err)
		}
		q, err := prime(r, bits/2)
		if err != nil {
			scrub.Big(p)
			return nil, fmt.Errorf("rsakey: prime generation: %w", err)
		}
		if key := keyFromPrimes(p, q, bits); key != nil {
			return key, nil
		}
		scrub.Big(p)
		scrub.Big(q)
	}
}

// keyFromPrimes builds the key of the given modulus size on the primes p
// and q, or returns nil when they make none: p = q, a short modulus, e not
// invertible mod φ, or a key that fails Validate. The key takes p and q
// as its parts. p−1, q−1 and φ each factor N, so they are scrubbed on
// every path, and so is a built key that is refused.
func keyFromPrimes(p, q *big.Int, bits int) *PrivateKey {
	if p.Cmp(q) == 0 {
		return nil
	}
	// Keep p > q so qinv = q^-1 mod p is well-formed conventionally.
	if p.Cmp(q) < 0 {
		p, q = q, p
	}
	n := new(big.Int).Mul(p, q)
	if n.BitLen() != bits {
		return nil
	}
	one := big.NewInt(1)
	var pm1, qm1, phi big.Int
	defer scrubBig(&pm1, &qm1, &phi)
	pm1.Sub(p, one)
	qm1.Sub(q, one)
	phi.Mul(&pm1, &qm1)
	e := big.NewInt(DefaultExponent)
	d := new(big.Int)
	if d.ModInverse(e, &phi) == nil {
		return nil // e not invertible mod phi; rare, retry
	}
	key := &PrivateKey{
		PublicKey: NewPublicKey(n.Bytes(), e.Bytes()),
		D:         d,
		P:         p,
		Q:         q,
		Dp:        new(big.Int).Mod(d, &pm1),
		Dq:        new(big.Int).Mod(d, &qm1),
		Qinv:      new(big.Int).ModInverse(q, p),
	}
	if err := key.Validate(); err != nil {
		key.Zeroize()
		return nil
	}
	return key
}

// Validate checks the internal consistency of the key on math/big. P and
// Q must be above 1 before any arithmetic: p−1 and q−1 are moduli below.
// Parsing validates keys of at most 512 bits on the kernels in mont.go
// instead, with the same verdicts.
func (k *PrivateKey) Validate() error {
	if k.N == nil || k.E == nil || k.D == nil || k.P == nil || k.Q == nil ||
		k.Dp == nil || k.Dq == nil || k.Qinv == nil {
		return fmt.Errorf("%w: missing component", ErrBadKey)
	}
	one := big.NewInt(1)
	if k.P.Cmp(one) <= 0 || k.Q.Cmp(one) <= 0 {
		return errSmallPrime
	}
	n := new(big.Int).Mul(k.P, k.Q)
	if n.Cmp(k.N) != 0 {
		return errModulus
	}
	// p−1, q−1, e·d and q·qinv each factor N, and D mod (p−1) and
	// D mod (q−1) are the CRT exponents: all are scrubbed on every path.
	var pm1, qm1, ed, dp, dq, qqinv big.Int
	defer scrubBig(&pm1, &qm1, &ed, &dp, &dq, &qqinv)
	pm1.Sub(k.P, one)
	qm1.Sub(k.Q, one)
	// e*d ≡ 1 mod lcm(p-1, q-1) is implied by e*d ≡ 1 mod (p-1) and (q-1).
	ed.Mul(k.E, k.D)
	if new(big.Int).Mod(&ed, &pm1).Cmp(one) != 0 {
		return errEDModP
	}
	if new(big.Int).Mod(&ed, &qm1).Cmp(one) != 0 {
		return errEDModQ
	}
	if dp.Mod(k.D, &pm1).Cmp(k.Dp) != 0 {
		return errDp
	}
	if dq.Mod(k.D, &qm1).Cmp(k.Dq) != 0 {
		return errDq
	}
	qqinv.Mul(k.Q, k.Qinv)
	if new(big.Int).Mod(&qqinv, k.P).Cmp(one) != 0 {
		return errQinv
	}
	return nil
}

// SignNoCRT computes the textbook RSA signature m^d mod n directly.
func (k *PrivateKey) SignNoCRT(msg []byte) ([]byte, error) {
	m := new(big.Int).SetBytes(msg)
	if m.Cmp(k.N) >= 0 {
		return nil, ErrMsgTooLong
	}
	s := new(big.Int).Exp(m, k.D, k.N)
	return padTo(s.Bytes(), k.Size()), nil
}

// SignCRT computes m^d mod n with the Chinese Remainder Theorem, the
// fast path real OpenSSL uses (and the reason p and q sit in memory at all).
// A key of at most 512 bits (primes, CRT exponents and qinv of at most 256
// bits) runs on the fixed-width Montgomery kernel in mont.go, a wider one
// on math/big; both give the same bytes. A key whose P or Q is not an odd
// number above 1 — a zeroized key, for one — is refused with ErrBadKey.
func (k *PrivateKey) SignCRT(msg []byte) ([]byte, error) {
	if !oddAboveOne(k.P) || !oddAboveOne(k.Q) {
		return nil, ErrBadKey
	}
	m := new(big.Int).SetBytes(msg)
	if m.Cmp(k.N) >= 0 {
		return nil, ErrMsgTooLong
	}
	if k.N.BitLen() <= 2*kernelBits && k.P.BitLen() <= kernelBits && k.Q.BitLen() <= kernelBits &&
		k.Dp.BitLen() <= kernelBits && k.Dq.BitLen() <= kernelBits && k.Qinv.BitLen() <= kernelBits {
		var ws workspace
		return k.signCRT(m, &ws), nil
	}
	return k.signCRTBig(m), nil
}

// SignCRTParts is SignCRT for a caller that holds the private parts as
// big-endian bytes, as ssl does once it has read them out of simulated
// memory. When they fit the kernel, as every key of at most 512 bits
// does, they go straight into its workspace limbs, which are wiped before
// it returns, and no *big.Int ever holds them. A wider key is built into
// a PrivateKey here and zeroized before SignCRTParts returns. The caller
// still owns the byte slices, and scrubs them.
func SignCRTParts(pub *PublicKey, msg, p, q, dp, dq, qinv []byte) ([]byte, error) {
	var ws workspace
	defer ws.wipe()
	if pub.N.BitLen() > 2*kernelBits || !loadBytes(ws.p[:], p) || !loadBytes(ws.q[:], q) ||
		!loadBytes(ws.dp[:], dp) || !loadBytes(ws.dq[:], dq) || !loadBytes(ws.qinv[:], qinv) {
		k := &PrivateKey{
			PublicKey: *pub,
			P:         new(big.Int).SetBytes(p), Q: new(big.Int).SetBytes(q),
			Dp: new(big.Int).SetBytes(dp), Dq: new(big.Int).SetBytes(dq),
			Qinv: new(big.Int).SetBytes(qinv),
		}
		defer k.Zeroize()
		return k.SignCRT(msg)
	}
	if !ws.p.oddAboveOne() || !ws.q.oddAboveOne() {
		return nil, ErrBadKey
	}
	var n limbs8
	loadWords(n[:], pub.N.Bits())
	if !loadBytes(ws.m[:], msg) || !less8(&ws.m, &n) {
		return nil, ErrMsgTooLong
	}
	return ws.crt((pub.N.BitLen() + 7) / 8), nil
}

// signCRTBig is SignCRT on math/big. Each key-equivalent intermediate is
// scrubbed before it returns — m mod p alone factors N by one gcd, as does
// s2 against the signature — though the scratch math/big allocates inside
// Mod, Exp and Mul stays out of reach.
func (k *PrivateKey) signCRTBig(m *big.Int) []byte {
	// s1 = m^dp mod p; s2 = m^dq mod q
	mp := new(big.Int).Mod(m, k.P)
	mq := new(big.Int).Mod(m, k.Q)
	s1 := new(big.Int).Exp(mp, k.Dp, k.P)
	s2 := new(big.Int).Exp(mq, k.Dq, k.Q)
	// h = qinv * (s1 - s2) mod p
	h := new(big.Int).Sub(s1, s2)
	h.Mod(h, k.P)
	h.Mul(h, k.Qinv)
	h.Mod(h, k.P)
	// s = s2 + h*q; s holds h*q until s2 is added
	s := new(big.Int).Mul(h, k.Q)
	s.Add(s, s2)
	out := padTo(s.Bytes(), k.Size())
	scrub.Big(mp)
	scrub.Big(mq)
	scrub.Big(s1)
	scrub.Big(s2)
	scrub.Big(h)
	scrub.Big(s)
	return out
}

// oddAboveOne reports whether v is an odd integer greater than 1, as every
// RSA prime is and as the Montgomery kernel requires of a modulus.
func oddAboveOne(v *big.Int) bool {
	return v != nil && v.Sign() > 0 && v.Bit(0) == 1 && v.BitLen() > 1
}

// PublicOp returns x^E mod N, big-endian and left-padded to the modulus
// size: the raw public-key operation under Verify and RSA encryption. x,
// read as a big-endian integer, must be below N; otherwise PublicOp
// returns ErrMsgTooLong. E must not be negative, as no parsed or generated
// key's is. An odd modulus of at most 512 bits runs on the 8-limb
// Montgomery kernel in mont.go, from the R² mod N that NewPublicKey
// stored, or, for a key built another way, from one computed on the call;
// any other modulus stays on big.Int.Exp. All three give the same bytes.
func (pub *PublicKey) PublicOp(x []byte) ([]byte, error) {
	size := (pub.N.BitLen() + 7) / 8
	if pub.onKernel() {
		out := make([]byte, size)
		if err := pub.publicOpInto(out, x); err != nil {
			return nil, err
		}
		return out, nil
	}
	s := new(big.Int).SetBytes(x)
	if s.Cmp(pub.N) >= 0 {
		return nil, ErrMsgTooLong
	}
	return padTo(s.Exp(s, pub.E, pub.N).Bytes(), size), nil
}

// onKernel reports whether PublicOp runs on the public kernel: whether N
// is odd, above 1 and at most 512 bits.
func (pub *PublicKey) onKernel() bool {
	return oddAboveOne(pub.N) && pub.N.BitLen() <= 2*kernelBits
}

// publicOpInto is PublicOp on the public kernel, into dst, which holds
// the modulus size.
func (pub *PublicKey) publicOpInto(dst, x []byte) error {
	var n, z, r2 limbs8
	loadWords(n[:], pub.N.Bits())
	if !loadBytes(z[:], x) || !less8(&z, &n) {
		return ErrMsgTooLong
	}
	if pre := pub.pre; pre != nil && pub.N == &pre.n {
		r2 = pre.r2
	} else {
		rr8(&r2, &n, montInv(n[0]))
	}
	expPub(&z, &n, &r2, pub.E)
	fillBytes(dst, &z)
	return nil
}

// Verify checks sig against msg with the public key: sig^e mod n == msg.
func (pub *PublicKey) Verify(msg, sig []byte) error {
	m, err := pub.PublicOp(sig)
	return verified(m, msg, err)
}

// verified is Verify's verdict on m = sig^e mod n, or on err from
// computing it: m must equal msg, leading zeros aside.
func verified(m, msg []byte, err error) error {
	if err != nil || !bytes.Equal(bytes.TrimLeft(m, "\x00"), bytes.TrimLeft(msg, "\x00")) {
		return ErrBadSignature
	}
	return nil
}

// Size returns the modulus size in bytes.
func (k *PrivateKey) Size() int { return (k.N.BitLen() + 7) / 8 }

// MarshalDER encodes the key as a PKCS#1 RSAPrivateKey.
//
//memlint:source result=0
func (k *PrivateKey) MarshalDER() []byte {
	var body []byte
	body = der.AppendInteger(body, nil) // version 0
	for _, v := range []*big.Int{k.N, k.E, k.D, k.P, k.Q, k.Dp, k.Dq, k.Qinv} {
		body = der.AppendInteger(body, v.Bytes())
	}
	return der.AppendSequence(nil, body)
}

// MarshalPEM encodes the key as a PEM-armored PKCS#1 file — the byte string
// that lands in the page cache when a server loads its host key.
//
//memlint:source result=0
func (k *PrivateKey) MarshalPEM() []byte {
	// The DER intermediate is a second full copy of the key; scrub it once
	// the armor holds the bytes.
	derBytes := k.MarshalDER()
	defer scrub.Bytes(derBytes)
	return pemfile.Encode(PEMType, derBytes)
}

// Parts is a PKCS#1 RSAPrivateKey's eight INTEGERs in file order, each
// big-endian without its sign octet and a view into the DER it was parsed
// from: whoever owns that buffer owns the parts, and scrubbing it scrubs
// them.
type Parts struct {
	N, E, D, P, Q, Dp, Dq, Qinv []byte
}

// partNames names the eight INTEGERs after the version, in file order.
var partNames = [...]string{"n", "e", "d", "p", "q", "dp", "dq", "qinv"}

// ParseParts parses a PKCS#1 RSAPrivateKey into views of its INTEGERs and
// validates the key they form: on the kernels in mont.go when it fits
// them, as every key of at most 512 bits with odd primes does, and with
// Validate otherwise. It copies nothing out of data.
func ParseParts(data []byte) (Parts, error) {
	v, err := parseParts(data)
	if err != nil {
		return Parts{}, err
	}
	if err := v.validate(); err != nil {
		return Parts{}, err
	}
	return v, nil
}

// parseParts is ParseParts without the validation: the byte-level parse.
// The decoder accepts only DER's one encoding of each value, so the input
// of any parse that succeeds is exactly what MarshalDER gives for the key.
func parseParts(data []byte) (Parts, error) {
	d := der.NewDecoder(data)
	seq, err := d.ReadSequence()
	if err != nil {
		return Parts{}, fmt.Errorf("rsakey: %w", err)
	}
	if err := d.Finish(); err != nil {
		return Parts{}, fmt.Errorf("rsakey: %w", err)
	}
	version, err := seq.ReadInteger()
	if err != nil {
		return Parts{}, fmt.Errorf("rsakey: version: %w", err)
	}
	if len(version) != 0 {
		return Parts{}, fmt.Errorf("%w: unsupported version", ErrBadKey)
	}
	var ints [len(partNames)][]byte
	for i := range ints {
		if ints[i], err = seq.ReadInteger(); err != nil {
			return Parts{}, fmt.Errorf("rsakey: %s: %w", partNames[i], err)
		}
	}
	if err := seq.Finish(); err != nil {
		return Parts{}, fmt.Errorf("rsakey: %w", err)
	}
	return Parts{
		N: ints[0], E: ints[1], D: ints[2], P: ints[3],
		Q: ints[4], Dp: ints[5], Dq: ints[6], Qinv: ints[7],
	}, nil
}

// validate is ParseParts' check of the key v forms.
func (v *Parts) validate() error {
	if fits, err := v.checkKernel(); fits {
		return err
	}
	k := v.key()
	defer k.Zeroize()
	return k.Validate()
}

// key builds the PrivateKey the parts hold. Each part is converted in
// place, not through a helper closure, so memlint's taint follows it.
func (v *Parts) key() *PrivateKey {
	return &PrivateKey{
		PublicKey: NewPublicKey(v.N, v.E),
		D:         new(big.Int).SetBytes(v.D),
		P:         new(big.Int).SetBytes(v.P),
		Q:         new(big.Int).SetBytes(v.Q),
		Dp:        new(big.Int).SetBytes(v.Dp),
		Dq:        new(big.Int).SetBytes(v.Dq),
		Qinv:      new(big.Int).SetBytes(v.Qinv),
	}
}

// ParseDER decodes a PKCS#1 RSAPrivateKey.
func ParseDER(data []byte) (*PrivateKey, error) {
	v, err := ParseParts(data)
	if err != nil {
		return nil, err
	}
	return v.key(), nil
}

// DecodePEM de-armors a PEM-encoded PKCS#1 private key file into one fresh
// DER buffer and parses and validates the key in it: the parts are views
// into der. The caller owns der on every path, an error included, and
// scrubs it when done with both (scrubbing a nil slice is a no-op).
//
//memlint:source result=0
func DecodePEM(data []byte) (der []byte, parts Parts, err error) {
	blockType, der, err := pemfile.Decode(data)
	if err != nil {
		return der, Parts{}, fmt.Errorf("rsakey: %w", err)
	}
	if blockType != PEMType {
		return der, Parts{}, fmt.Errorf("%w: PEM type %q", ErrBadKey, blockType)
	}
	parts, err = ParseParts(der)
	return der, parts, err
}

// ParsePEM decodes a PEM-armored PKCS#1 private key file.
func ParsePEM(data []byte) (*PrivateKey, error) {
	der, v, err := DecodePEM(data)
	// der is the de-armored DER, key material in a fresh native buffer;
	// the key copies the parts out of it.
	defer scrub.Bytes(der)
	if err != nil {
		return nil, err
	}
	return v.key(), nil
}

// Zeroize scrubs the six private components' limb buffers in place and
// resets them to zero, leaving only the public half intact. Call it when a
// host-side copy of a key is done with (an HSM slot's destroy, the wide
// path of SignCRTParts); a key with nil components is a no-op.
func (k *PrivateKey) Zeroize() {
	scrubBig(k.D, k.P, k.Q, k.Dp, k.Dq, k.Qinv)
}

// scrubBig scrubs each of vs with scrub.Big.
func scrubBig(vs ...*big.Int) {
	for _, v := range vs {
		scrub.Big(v)
	}
}

// Clone returns a deep copy of k that shares no limb buffer with it, so
// zeroizing either leaves the other intact.
func (k *PrivateKey) Clone() *PrivateKey {
	c := func(v *big.Int) *big.Int { return new(big.Int).Set(v) }
	return &PrivateKey{
		PublicKey: NewPublicKey(k.N.Bytes(), k.E.Bytes()),
		D:         c(k.D), P: c(k.P), Q: c(k.Q),
		Dp: c(k.Dp), Dq: c(k.Dq), Qinv: c(k.Qinv),
	}
}

// Equal reports whether two private keys have identical components.
func (k *PrivateKey) Equal(o *PrivateKey) bool {
	if o == nil {
		return false
	}
	return k.N.Cmp(o.N) == 0 && k.E.Cmp(o.E) == 0 && k.D.Cmp(o.D) == 0 &&
		k.P.Cmp(o.P) == 0 && k.Q.Cmp(o.Q) == 0 && k.Dp.Cmp(o.Dp) == 0 &&
		k.Dq.Cmp(o.Dq) == 0 && k.Qinv.Cmp(o.Qinv) == 0
}

// padTo left-pads b with zeros to length n.
func padTo(b []byte, n int) []byte {
	if len(b) >= n {
		return b
	}
	out := make([]byte, n)
	copy(out[n-len(b):], b)
	return out
}
