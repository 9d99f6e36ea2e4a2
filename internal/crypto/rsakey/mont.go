package rsakey

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// This file holds the host-side RSA kernels: Montgomery arithmetic over
// fixed little-endian uint64 limbs, so every key of at most 512 bits runs
// without math/big. The private kernel works modulo an odd prime of at
// most 256 bits over [4]uint64 limbs, with R = 2^256; a shorter modulus is
// zero-padded, which Montgomery arithmetic permits for any odd m < R.
// SignCRT and SignCRTParts run both CRT halves of every key whose parts
// fit on it. The public kernel raises to the public exponent modulo an
// odd modulus of at most 512 bits over [8]uint64 limbs, with R = 2^512.
// Wider keys stay on big.Int.Exp.

// kernelBits is the widest prime the private kernel accepts; the public
// kernel takes moduli of up to twice that.
const kernelBits = 256

// limbs is a 256-bit little-endian value.
type limbs [4]uint64

// limbs8 is a 512-bit little-endian value.
type limbs8 [8]uint64

// workspace is the scratch of one CRT private operation. The key parts,
// the message and every key-equivalent intermediate (m mod p and m mod q
// in Montgomery form, the power table, s1, s2, h) live here and nowhere
// else; signCRT and SignCRTParts wipe it before returning.
type workspace struct {
	p, q   limbs     // the primes, zero-padded
	dp, dq limbs     // the CRT exponents
	qinv   limbs     // q⁻¹ mod p
	m      limbs8    // the message representative
	r2     limbs     // R² mod the current prime
	x      limbs     // a chunk being folded in by toMont
	acc    limbs     // accumulator; s1·R at the end of the p half
	s2     limbs     // m^dq mod q
	h      limbs     // qinv·(s1 − s2) mod p
	pow    [15]limbs // x^1 … x^15 in Montgomery form
	s      limbs8    // s2 + q·h, the signature
}

// wipe zeroes every word of ws.
func (ws *workspace) wipe() { *ws = workspace{} }

// madd returns (hi, lo) = a·b + c + d, which never overflows 128 bits.
func madd(a, b, c, d uint64) (hi, lo uint64) {
	var cc uint64
	hi, lo = bits.Mul64(a, b)
	lo, cc = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, cc)
	lo, cc = bits.Add64(lo, d, 0)
	hi, _ = bits.Add64(hi, 0, cc)
	return hi, lo
}

// montInv returns −m⁻¹ mod 2^64 for odd m by Newton iteration: m·m ≡ 1
// mod 8 gives 3 correct bits, and each step doubles them.
func montInv(m uint64) uint64 {
	inv := m
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return -inv
}

// reduceOnce sets z to (top, t) − m when that 257-bit value is at least m,
// and to t otherwise. Every Montgomery product and modular sum leaves a
// value below 2m, so one conditional subtraction brings it below m.
func reduceOnce(z *limbs, top, t0, t1, t2, t3 uint64, m *limbs) {
	s0, b := bits.Sub64(t0, m[0], 0)
	s1, b := bits.Sub64(t1, m[1], b)
	s2, b := bits.Sub64(t2, m[2], b)
	s3, b := bits.Sub64(t3, m[3], b)
	if _, b = bits.Sub64(top, 0, b); b != 0 { // (top, t) < m
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	z[0], z[1], z[2], z[3] = s0, s1, s2, s3
}

// montMul sets z = x·y·R⁻¹ mod m by coarsely integrated operand scanning
// (CIOS): each round adds x·y[i], then the multiple of m that clears the
// low limb, and shifts one limb down. It requires x·y < m·R (x < R and
// y < m suffice); z may alias x or y.
//
// Each product row is summed in two carry chains: the first joins the
// high half of each bits.Mul64 product to the low half of the next, and
// the second adds the row to the accumulator. Each chain is written out
// whole before the next, so the compiler keeps it in the carry flag.
func montMul(z, x, y, m *limbs, inv uint64) {
	var t0, t1, t2, t3, t4, t5, c, h0, h1, h2, p0, p1, p2, p3, p4 uint64
	for _, yi := range y {
		// t += x·yi, with the carry out of t4 in t5.
		h0, p0 = bits.Mul64(x[0], yi)
		h1, p1 = bits.Mul64(x[1], yi)
		h2, p2 = bits.Mul64(x[2], yi)
		p4, p3 = bits.Mul64(x[3], yi)
		p1, c = bits.Add64(p1, h0, 0)
		p2, c = bits.Add64(p2, h1, c)
		p3, c = bits.Add64(p3, h2, c)
		p4 += c // x·yi < 2^320: no carry out
		t0, c = bits.Add64(t0, p0, 0)
		t1, c = bits.Add64(t1, p1, c)
		t2, c = bits.Add64(t2, p2, c)
		t3, c = bits.Add64(t3, p3, c)
		t4, t5 = bits.Add64(t4, p4, c)

		// t += k·m clears the low limb; shift down one limb. t stays
		// below 2R, so t4 ends at most 1.
		k := t0 * inv
		h0, p0 = bits.Mul64(k, m[0])
		h1, p1 = bits.Mul64(k, m[1])
		h2, p2 = bits.Mul64(k, m[2])
		p4, p3 = bits.Mul64(k, m[3])
		p1, c = bits.Add64(p1, h0, 0)
		p2, c = bits.Add64(p2, h1, c)
		p3, c = bits.Add64(p3, h2, c)
		p4 += c
		_, c = bits.Add64(t0, p0, 0)
		t0, c = bits.Add64(t1, p1, c)
		t1, c = bits.Add64(t2, p2, c)
		t2, c = bits.Add64(t3, p3, c)
		t3, c = bits.Add64(t4, p4, c)
		t4 = t5 + c
	}
	reduceOnce(z, t4, t0, t1, t2, t3, m)
}

// montSqr sets z = x²·R⁻¹ mod m for x < m. It forms the 512-bit square
// with each cross product computed once and doubled (10 limb products
// instead of 16), then reduces it limb by limb. z may alias x.
func montSqr(z, x, m *limbs, inv uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var r0, r1, r2, r3, r4, r5, r6, r7, c, hi, lo, mid uint64

	// Cross products x_i·x_j, i < j, at limb i+j, row by row: x0·(x1, x2,
	// x3) at limbs 1–4, x1·(x2, x3) at limbs 3–5 and x2·x3 at limbs 5–6,
	// each summed in one carry chain and added in another. Their sum is
	// below 2^447, so nothing carries out of limb 6.
	hi, r1 = bits.Mul64(x0, x1)
	mid, r2 = bits.Mul64(x0, x2)
	r4, r3 = bits.Mul64(x0, x3)
	r2, c = bits.Add64(r2, hi, 0)
	r3, c = bits.Add64(r3, mid, c)
	r4 += c

	hi, lo = bits.Mul64(x1, x2)
	r5, mid = bits.Mul64(x1, x3)
	mid, c = bits.Add64(mid, hi, 0)
	r5 += c
	r3, c = bits.Add64(r3, lo, 0)
	r4, c = bits.Add64(r4, mid, c)
	r5 += c

	r6, lo = bits.Mul64(x2, x3)
	r5, c = bits.Add64(r5, lo, 0)
	r6 += c

	// Double them.
	r7 = r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 <<= 1

	// Add the squares x_i² at limb 2i.
	hi, r0 = bits.Mul64(x0, x0)
	r1, c = bits.Add64(r1, hi, 0)
	hi, lo = bits.Mul64(x1, x1)
	r2, c = bits.Add64(r2, lo, c)
	r3, c = bits.Add64(r3, hi, c)
	hi, lo = bits.Mul64(x2, x2)
	r4, c = bits.Add64(r4, lo, c)
	r5, c = bits.Add64(r5, hi, c)
	hi, lo = bits.Mul64(x3, x3)
	r6, c = bits.Add64(r6, lo, c)
	r7, _ = bits.Add64(r7, hi, c)

	// Reduce: round i adds k·m at limb i, which clears it, with k·m summed
	// as in montMul. The carry out of limb i+4 waits in cc and joins the
	// next round's top product limb, which is at most 2^64 − 2 because
	// k·m < (2^64 − 1)·R.
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	var k, h0, h1, h2, p0, p1, p2, p3, p4, cc uint64
	k = r0 * inv
	h0, p0 = bits.Mul64(k, m0)
	h1, p1 = bits.Mul64(k, m1)
	h2, p2 = bits.Mul64(k, m2)
	p4, p3 = bits.Mul64(k, m3)
	p1, c = bits.Add64(p1, h0, 0)
	p2, c = bits.Add64(p2, h1, c)
	p3, c = bits.Add64(p3, h2, c)
	p4 += c
	_, c = bits.Add64(r0, p0, 0)
	r1, c = bits.Add64(r1, p1, c)
	r2, c = bits.Add64(r2, p2, c)
	r3, c = bits.Add64(r3, p3, c)
	r4, cc = bits.Add64(r4, p4, c)

	k = r1 * inv
	h0, p0 = bits.Mul64(k, m0)
	h1, p1 = bits.Mul64(k, m1)
	h2, p2 = bits.Mul64(k, m2)
	p4, p3 = bits.Mul64(k, m3)
	p1, c = bits.Add64(p1, h0, 0)
	p2, c = bits.Add64(p2, h1, c)
	p3, c = bits.Add64(p3, h2, c)
	p4 += c + cc
	_, c = bits.Add64(r1, p0, 0)
	r2, c = bits.Add64(r2, p1, c)
	r3, c = bits.Add64(r3, p2, c)
	r4, c = bits.Add64(r4, p3, c)
	r5, cc = bits.Add64(r5, p4, c)

	k = r2 * inv
	h0, p0 = bits.Mul64(k, m0)
	h1, p1 = bits.Mul64(k, m1)
	h2, p2 = bits.Mul64(k, m2)
	p4, p3 = bits.Mul64(k, m3)
	p1, c = bits.Add64(p1, h0, 0)
	p2, c = bits.Add64(p2, h1, c)
	p3, c = bits.Add64(p3, h2, c)
	p4 += c + cc
	_, c = bits.Add64(r2, p0, 0)
	r3, c = bits.Add64(r3, p1, c)
	r4, c = bits.Add64(r4, p2, c)
	r5, c = bits.Add64(r5, p3, c)
	r6, cc = bits.Add64(r6, p4, c)

	k = r3 * inv
	h0, p0 = bits.Mul64(k, m0)
	h1, p1 = bits.Mul64(k, m1)
	h2, p2 = bits.Mul64(k, m2)
	p4, p3 = bits.Mul64(k, m3)
	p1, c = bits.Add64(p1, h0, 0)
	p2, c = bits.Add64(p2, h1, c)
	p3, c = bits.Add64(p3, h2, c)
	p4 += c + cc
	_, c = bits.Add64(r3, p0, 0)
	r4, c = bits.Add64(r4, p1, c)
	r5, c = bits.Add64(r5, p2, c)
	r6, c = bits.Add64(r6, p3, c)
	r7, cc = bits.Add64(r7, p4, c)

	reduceOnce(z, cc, r4, r5, r6, r7, m)
}

// modAdd sets z = x + y mod m for x, y < m.
func modAdd(z, x, y, m *limbs) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	reduceOnce(z, c, t0, t1, t2, t3, m)
}

// modSub sets z = x − y mod m for x, y < m.
func modSub(z, x, y, m *limbs) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		t0, c = bits.Add64(t0, m[0], 0)
		t1, c = bits.Add64(t1, m[1], c)
		t2, c = bits.Add64(t2, m[2], c)
		t3, _ = bits.Add64(t3, m[3], c)
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// limb returns the i-th 64-bit limb of the little-endian word slice w,
// zero past its end, for either width of big.Word.
func limb(w []big.Word, i int) uint64 {
	if bits.UintSize == 64 {
		if i < len(w) {
			return uint64(w[i])
		}
		return 0
	}
	var v uint64
	if 2*i < len(w) {
		v = uint64(w[2*i])
	}
	if 2*i+1 < len(w) {
		v |= uint64(w[2*i+1]) << 32
	}
	return v
}

// loadWords sets z to the little-endian words w, which must fit in len(z)
// limbs.
func loadWords(z []uint64, w []big.Word) {
	for i := range z {
		z[i] = limb(w, i)
	}
}

// storeWords sets w to the little-endian limbs l, for either width of
// big.Word: loadWords' inverse. w must hold them.
func storeWords(w []big.Word, l []uint64) {
	for i, v := range l {
		if bits.UintSize == 64 {
			w[i] = big.Word(v)
		} else {
			w[2*i], w[2*i+1] = big.Word(v), big.Word(v>>32)
		}
	}
}

// load sets z to v, which must be non-negative and at most 256 bits.
func (z *limbs) load(v *big.Int) { loadWords(z[:], v.Bits()) }

// loadBytes sets z to the big-endian value b and reports whether it fits
// in len(z) limbs. Leading zero bytes past that width are allowed.
func loadBytes(z []uint64, b []byte) bool {
	clear(z)
	for i := 0; len(b) > 0; i++ { // limb i is b's last 8 bytes, or what is left
		var w uint64
		if n := len(b) - 8; n >= 0 {
			w, b = binary.BigEndian.Uint64(b[n:]), b[:n]
		} else {
			for _, v := range b {
				w = w<<8 | uint64(v)
			}
			b = nil
		}
		if i < len(z) {
			z[i] = w
		} else if w != 0 {
			return false
		}
	}
	return true
}

// oddAboveOne reports whether z is an odd value above 1, as the package's
// oddAboveOne does for a *big.Int.
func (z *limbs) oddAboveOne() bool { return z[0]&1 == 1 && z.aboveOne() }

// aboveOne reports whether z is above 1.
func (z *limbs) aboveOne() bool { return z[0] > 1 || z[1]|z[2]|z[3] != 0 }

// rr sets ws.r2 = R² mod m for odd m > 1. Doubling 2^(len(m)−1), which is
// below m, up to 2^264 = R·2^8 mod m takes at most 263 shift-and-subtract
// steps (9 for a 256-bit prime); five Montgomery squarings then take R·2^8
// through R·2^16, …, R·2^128 to R·2^256 = R².
func (ws *workspace) rr(m *limbs, inv uint64) {
	z := &ws.r2
	n := 255
	for m[n/64]>>(n%64) == 0 {
		n--
	}
	*z = limbs{}
	z[n/64] = 1 << (n % 64)
	for ; n < kernelBits+8; n++ {
		top := z[3] >> 63
		reduceOnce(z, top, z[0]<<1, z[1]<<1|z[0]>>63, z[2]<<1|z[1]>>63, z[3]<<1|z[2]>>63, m)
	}
	for i := 0; i < 5; i++ {
		montSqr(z, z, m, inv)
	}
}

// toMont sets z = v·R mod m for a little-endian v of any length, with
// ws.r2 already R² mod m. It folds v in 256-bit chunks from the top,
// Horner style: z ← z·R + chunk·R, each term one Montgomery product by R².
// The chunk is staged in ws.x, so z must not be &ws.x.
func (ws *workspace) toMont(z *limbs, v []uint64, m *limbs, inv uint64) {
	*z = limbs{}
	for c := (len(v) + len(ws.x) - 1) / len(ws.x); c > 0; c-- {
		ws.x = limbs{}
		copy(ws.x[:], v[len(ws.x)*(c-1):])
		montMul(z, z, &ws.r2, m, inv)
		montMul(&ws.x, &ws.x, &ws.r2, m, inv)
		modAdd(z, z, &ws.x, m)
	}
}

// fromMont sets z = x·R⁻¹ mod m, leaving Montgomery form.
func fromMont(z, x, m *limbs, inv uint64) {
	one := limbs{1}
	montMul(z, x, &one, m, inv)
}

// powMont sets ws.acc = x^e·R mod m (and ws.r2 = R² mod m) for odd m > 1
// and little-endian x, e ≥ 0 of any length.
func (ws *workspace) powMont(x, e []uint64, m *limbs, inv uint64) {
	ws.rr(m, inv)
	ws.powR2(x, e, m, inv)
}

// powR2 is powMont for a caller that has set ws.r2 = R² mod m already, as
// one raising several bases modulo one m does. The exponent runs through a
// fixed 4-bit window: the table holds x^1 … x^15, leading zero windows are
// skipped, and a zero window costs its four squarings and no multiply.
func (ws *workspace) powR2(x, e []uint64, m *limbs, inv uint64) {
	ws.toMont(&ws.pow[0], x, m, inv)
	for i := 1; i < len(ws.pow); i++ {
		montMul(&ws.pow[i], &ws.pow[i-1], &ws.pow[0], m, inv)
	}
	started := false
	for i := len(e)*16 - 1; i >= 0; i-- { // 16 windows per 64-bit limb
		if started {
			montSqr(&ws.acc, &ws.acc, m, inv)
			montSqr(&ws.acc, &ws.acc, m, inv)
			montSqr(&ws.acc, &ws.acc, m, inv)
			montSqr(&ws.acc, &ws.acc, m, inv)
		}
		w := uint(e[i/16]>>(4*(i%16))) & 15
		switch {
		case w == 0:
		case started:
			montMul(&ws.acc, &ws.acc, &ws.pow[w-1], m, inv)
		default:
			ws.acc = ws.pow[w-1]
			started = true
		}
	}
	if !started { // e = 0: x^0 = 1, which is R mod m in Montgomery form
		fromMont(&ws.acc, &ws.r2, m, inv)
	}
}

// signCRT is SignCRT on the kernel, for a key whose parts all fit it: it
// loads them and m into ws, runs crt and wipes ws before returning.
func (k *PrivateKey) signCRT(m *big.Int, ws *workspace) []byte {
	defer ws.wipe()
	ws.p.load(k.P)
	ws.q.load(k.Q)
	ws.dp.load(k.Dp)
	ws.dq.load(k.Dq)
	ws.qinv.load(k.Qinv)
	loadWords(ws.m[:], m.Bits())
	return ws.crt(k.Size())
}

// crt is the CRT private operation over the parts and message in ws, for
// odd primes above 1 and m below p·q: s2 = m^dq mod q, s1 = m^dp mod p,
// h = qinv·(s1 − s2) mod p and s = s2 + q·h, returned big-endian and
// left-padded to size bytes. Every intermediate stays in ws; the caller
// wipes it.
func (ws *workspace) crt(size int) []byte {
	q, inv := &ws.q, montInv(ws.q[0])
	ws.powMont(ws.m[:], ws.dq[:], q, inv)
	fromMont(&ws.s2, &ws.acc, q, inv)

	// The p half stays in Montgomery form until h: s1·R − s2·R is
	// (s1 − s2)·R, and its product with qinv·R is h·R.
	p, inv := &ws.p, montInv(ws.p[0])
	ws.powMont(ws.m[:], ws.dp[:], p, inv)
	montMul(&ws.h, &ws.s2, &ws.r2, p, inv) // s2·R; s2 < R suffices
	modSub(&ws.acc, &ws.acc, &ws.h, p)
	ws.toMont(&ws.h, ws.qinv[:], p, inv)
	montMul(&ws.acc, &ws.acc, &ws.h, p, inv)
	fromMont(&ws.h, &ws.acc, p, inv)

	// s = s2 + q·h < p·q, which fits eight limbs.
	s, h := &ws.s, &ws.h
	*s = limbs8{ws.s2[0], ws.s2[1], ws.s2[2], ws.s2[3]}
	for i, w := range h {
		var c uint64
		c, s[i] = madd(q[0], w, s[i], 0)
		c, s[i+1] = madd(q[1], w, s[i+1], c)
		c, s[i+2] = madd(q[2], w, s[i+2], c)
		c, s[i+3] = madd(q[3], w, s[i+3], c)
		for j := i + 4; j < len(s); j++ {
			s[j], c = bits.Add64(s[j], c, 0)
		}
	}
	return sigBytes(s, size)
}

// checkSpace is the working state of one kernel validation: the parts as
// limbs, the product p·q, and the modulus and residues of the check under
// way, beside the workspace whose rr and toMont give them. checkKernel
// wipes it before returning.
type checkSpace struct {
	workspace
	n, e, d, dp, dq, qinv limbs8
	pq                    [8]uint64
	mod, odd              limbs
	one, ed, dr, xr       limbs
}

// wipe zeroes every word of cs.
func (cs *checkSpace) wipe() { *cs = checkSpace{} }

// checkKernel is Validate on the kernels, for a key whose primes are odd
// and at most 256 bits and whose other parts are at most 512 bits: fits
// reports that the key has that shape, and err is then Validate's verdict
// on it, checked in Validate's order. A key of any other shape gets no
// verdict here.
func (v *Parts) checkKernel() (fits bool, err error) {
	var cs checkSpace
	defer cs.wipe()
	if !loadBytes(cs.p[:], v.P) || !loadBytes(cs.q[:], v.Q) || !loadBytes(cs.n[:], v.N) ||
		!loadBytes(cs.e[:], v.E) || !loadBytes(cs.d[:], v.D) || !loadBytes(cs.dp[:], v.Dp) ||
		!loadBytes(cs.dq[:], v.Dq) || !loadBytes(cs.qinv[:], v.Qinv) {
		return false, nil
	}
	if !cs.p.aboveOne() || !cs.q.aboveOne() {
		return true, errSmallPrime
	}
	if cs.p[0]&1 == 0 || cs.q[0]&1 == 0 {
		return false, nil
	}
	mulInto(cs.pq[:], cs.p[:], cs.q[:])
	if limbs8(cs.pq) != cs.n {
		return true, errModulus
	}
	edP, dpOK := cs.crtConditions(&cs.p, &cs.dp)
	edQ, dqOK := cs.crtConditions(&cs.q, &cs.dq)
	switch {
	case !edP:
		return true, errEDModP
	case !edQ:
		return true, errEDModQ
	case !dpOK:
		return true, errDp
	case !dqOK:
		return true, errDq
	}
	// q·qinv ≡ 1 (mod p): q·R times qinv·R is q·qinv·R, against R.
	inv := montInv(cs.p[0])
	cs.montOne(&cs.p, inv)
	cs.toMont(&cs.xr, trim(cs.q[:]), &cs.p, inv)
	cs.toMont(&cs.dr, trim(cs.qinv[:]), &cs.p, inv)
	montMul(&cs.xr, &cs.xr, &cs.dr, &cs.p, inv)
	if cs.xr != cs.one {
		return true, errQinv
	}
	return true, nil
}

// crtConditions reports Validate's two conditions modulo r−1 for an odd
// prime r > 1 of the key in cs: e·d ≡ 1 (mod r−1), and dx = d mod r−1,
// that is dx < r−1 and d ≡ dx. With r−1 = 2^s·o and o odd, a congruence
// holds exactly when it holds modulo 2^s, where the low s bits agree, and
// modulo o, where the residues agree in Montgomery form (x·R mod o, which
// toMont gives fully reduced, R = 2^256 being invertible modulo an odd o).
func (cs *checkSpace) crtConditions(r *limbs, dx *limbs8) (ed, dOK bool) {
	cs.mod = *r
	cs.mod[0]-- // r is odd: no borrow
	s := trailingZeros(&cs.mod)
	mulInto(cs.pq[:], cs.e[:4], cs.d[:4]) // its low 256 bits are e·d's
	ed = lowEqual(cs.pq[:4], []uint64{1}, s)
	dOK = below(dx[:], &cs.mod) && lowEqual(cs.d[:], dx[:], s)
	shr(&cs.odd, &cs.mod, s) // o = (r−1) >> s
	if cs.odd == (limbs{1}) {
		return ed, dOK
	}
	inv := montInv(cs.odd[0])
	cs.montOne(&cs.odd, inv)
	cs.toMont(&cs.ed, trim(cs.e[:]), &cs.odd, inv)
	cs.toMont(&cs.dr, trim(cs.d[:]), &cs.odd, inv)
	montMul(&cs.ed, &cs.ed, &cs.dr, &cs.odd, inv) // e·d·R
	cs.toMont(&cs.xr, trim(dx[:]), &cs.odd, inv)
	return ed && cs.ed == cs.one, dOK && cs.dr == cs.xr
}

// montOne sets cs.r2 = R² mod m and cs.one = R mod m, the Montgomery form
// of 1, for odd m > 1.
func (cs *checkSpace) montOne(m *limbs, inv uint64) {
	cs.rr(m, inv)
	fromMont(&cs.one, &cs.r2, m, inv)
}

// lowEqual reports whether the low s bits of x and y agree.
func lowEqual(x, y []uint64, s int) bool {
	for i := 0; 64*i < s; i++ {
		mask := ^uint64(0)
		if r := s - 64*i; r < 64 {
			mask = 1<<r - 1
		}
		if (word(x, i)^word(y, i))&mask != 0 {
			return false
		}
	}
	return true
}

// trim returns x without its high zero limbs, so toMont folds in only the
// chunks that hold bits.
func trim(x []uint64) []uint64 {
	for len(x) > 0 && x[len(x)-1] == 0 {
		x = x[:len(x)-1]
	}
	return x
}

// word returns x[i], or 0 past the end of x.
func word(x []uint64, i int) uint64 {
	if i < len(x) {
		return x[i]
	}
	return 0
}

// shr sets z = x >> n for n ≤ 256. z may alias x: limb i reads only limbs
// i and up.
func shr(z, x *limbs, n int) {
	for i := range z {
		j, b := i+n/64, n%64
		z[i] = word(x[:], j) >> b
		if b != 0 {
			z[i] |= word(x[:], j+1) << (64 - b)
		}
	}
}

// trailingZeros returns the number of trailing zero bits of x ≠ 0.
func trailingZeros(x *limbs) int {
	for i, w := range x {
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return kernelBits
}

// bitLen returns the length of x in bits, 0 for x = 0.
func bitLen(x *limbs) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// below reports whether the little-endian x is less than m.
func below(x []uint64, m *limbs) bool {
	for _, w := range x[len(m):] {
		if w != 0 {
			return false
		}
	}
	var b uint64
	for i, w := range m {
		_, b = bits.Sub64(x[i], w, b)
	}
	return b != 0
}

// mulInto sets z = x·y by schoolbook multiplication; z must hold
// len(x)+len(y) limbs.
func mulInto(z, x, y []uint64) {
	clear(z)
	for i, yi := range y {
		var c uint64
		for j, xj := range x {
			c, z[i+j] = madd(xj, yi, z[i+j], c)
		}
		z[i+len(x)] = c
	}
}

// sigBytes returns s big-endian in its minimal length, left-padded with
// zeros to size bytes: what padTo(s.Bytes(), size) gives on math/big.
func sigBytes(s *limbs8, size int) []byte {
	n := 0
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0 {
			n = 8*i + (bits.Len64(s[i])+7)/8
			break
		}
	}
	out := make([]byte, max(n, size))
	fillBytes(out, s)
	return out
}

// fillBytes writes s big-endian into dst, left-padded with zeros; dst
// must hold s's minimal length.
func fillBytes(dst []byte, s *limbs8) {
	clear(dst)
	for i := 0; i < min(len(dst), 8*len(s)); i++ {
		dst[len(dst)-1-i] = byte(s[i/8] >> (8 * (i % 8)))
	}
}

// reduce8 sets z to (top, z) − m when that 513-bit value is at least m,
// the public kernel's reduceOnce.
func reduce8(z *limbs8, top uint64, m *limbs8) {
	var d limbs8
	var b uint64
	for i := range z {
		d[i], b = bits.Sub64(z[i], m[i], b)
	}
	if _, b = bits.Sub64(top, 0, b); b == 0 {
		*z = d
	}
}

// less8 reports whether x < y.
func less8(x, y *limbs8) bool {
	var b uint64
	for i := range x {
		_, b = bits.Sub64(x[i], y[i], b)
	}
	return b != 0
}

// montMul8 sets z = x·y·R⁻¹ mod m with R = 2^512, by CIOS as montMul
// does over four limbs, with each product row summed in the same two carry
// chains. It requires x·y < m·R; z may alias x or y.
func montMul8(z, x, y, m *limbs8, inv uint64) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, c uint64
	var h0, h1, h2, h3, h4, h5, h6, p0, p1, p2, p3, p4, p5, p6, p7, p8 uint64
	for _, yi := range y {
		// t += x·yi, with the carry out of t8 in t9.
		h0, p0 = bits.Mul64(x[0], yi)
		h1, p1 = bits.Mul64(x[1], yi)
		h2, p2 = bits.Mul64(x[2], yi)
		h3, p3 = bits.Mul64(x[3], yi)
		h4, p4 = bits.Mul64(x[4], yi)
		h5, p5 = bits.Mul64(x[5], yi)
		h6, p6 = bits.Mul64(x[6], yi)
		p8, p7 = bits.Mul64(x[7], yi)
		p1, c = bits.Add64(p1, h0, 0)
		p2, c = bits.Add64(p2, h1, c)
		p3, c = bits.Add64(p3, h2, c)
		p4, c = bits.Add64(p4, h3, c)
		p5, c = bits.Add64(p5, h4, c)
		p6, c = bits.Add64(p6, h5, c)
		p7, c = bits.Add64(p7, h6, c)
		p8 += c // x·yi < 2^576: no carry out
		t0, c = bits.Add64(t0, p0, 0)
		t1, c = bits.Add64(t1, p1, c)
		t2, c = bits.Add64(t2, p2, c)
		t3, c = bits.Add64(t3, p3, c)
		t4, c = bits.Add64(t4, p4, c)
		t5, c = bits.Add64(t5, p5, c)
		t6, c = bits.Add64(t6, p6, c)
		t7, c = bits.Add64(t7, p7, c)
		t8, t9 = bits.Add64(t8, p8, c)

		// t += k·m clears the low limb; shift down one limb. t stays
		// below 2R, so t8 ends at most 1.
		k := t0 * inv
		h0, p0 = bits.Mul64(k, m[0])
		h1, p1 = bits.Mul64(k, m[1])
		h2, p2 = bits.Mul64(k, m[2])
		h3, p3 = bits.Mul64(k, m[3])
		h4, p4 = bits.Mul64(k, m[4])
		h5, p5 = bits.Mul64(k, m[5])
		h6, p6 = bits.Mul64(k, m[6])
		p8, p7 = bits.Mul64(k, m[7])
		p1, c = bits.Add64(p1, h0, 0)
		p2, c = bits.Add64(p2, h1, c)
		p3, c = bits.Add64(p3, h2, c)
		p4, c = bits.Add64(p4, h3, c)
		p5, c = bits.Add64(p5, h4, c)
		p6, c = bits.Add64(p6, h5, c)
		p7, c = bits.Add64(p7, h6, c)
		p8 += c
		_, c = bits.Add64(t0, p0, 0)
		t0, c = bits.Add64(t1, p1, c)
		t1, c = bits.Add64(t2, p2, c)
		t2, c = bits.Add64(t3, p3, c)
		t3, c = bits.Add64(t4, p4, c)
		t4, c = bits.Add64(t5, p5, c)
		t5, c = bits.Add64(t6, p6, c)
		t6, c = bits.Add64(t7, p7, c)
		t7, c = bits.Add64(t8, p8, c)
		t8 = t9 + c
	}
	*z = limbs8{t0, t1, t2, t3, t4, t5, t6, t7}
	reduce8(z, t8, m)
}

// rr8 sets z = R² mod n for odd n > 1, with R = 2^512, as rr does for the
// private kernel. Doubling 2^(len(n)−1), which is below n, up to
// 2^520 = R·2^8 mod n takes at most 519 shift-and-subtract steps (9 for a
// 512-bit modulus); six Montgomery squarings then take R·2^8 through
// R·2^16, …, R·2^256 to R·2^512 = R².
func rr8(z, n *limbs8, inv uint64) {
	b := 2*kernelBits - 1
	for n[b/64]>>(b%64) == 0 {
		b--
	}
	*z = limbs8{}
	z[b/64] = 1 << (b % 64)
	for ; b < 2*kernelBits+8; b++ {
		top := z[7] >> 63
		for i := len(z) - 1; i > 0; i-- {
			z[i] = z[i]<<1 | z[i-1]>>63
		}
		z[0] <<= 1
		reduce8(z, top, n)
	}
	for i := 0; i < 6; i++ {
		montMul8(z, z, z, n, inv)
	}
}

// pubPre is what NewPublicKey keeps for a modulus the public kernel
// takes: N as a big.Int over its own words, E, and R² mod N.
type pubPre struct {
	n, e big.Int
	w    [2 * kernelBits / bits.UintSize]big.Word
	r2   limbs8
}

// expPub sets z = z^e mod n for odd n > 1, z < n and e ≥ 0, on the public
// kernel, with r2 = R² mod n: z·R from r2, then left-to-right
// square-and-multiply over the bits of e.
func expPub(z, n, r2 *limbs8, e *big.Int) {
	top := e.BitLen()
	if top == 0 {
		*z = limbs8{1}
		return
	}
	inv := montInv(n[0])
	var x limbs8
	montMul8(&x, z, r2, n, inv)
	acc, ew := x, e.Bits()
	for i := top - 2; i >= 0; i-- {
		montMul8(&acc, &acc, &acc, n, inv)
		if ew[i/bits.UintSize]>>(i%bits.UintSize)&1 != 0 {
			montMul8(&acc, &acc, &x, n, inv)
		}
	}
	one := limbs8{1}
	montMul8(z, &acc, &one, n, inv)
}
