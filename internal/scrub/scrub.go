// Package scrub is the canonical zeroizing release for native-heap copies
// of key material. The simulated machine already has its own scrub
// primitives (mem.Zero for physical ranges, libc.Heap.FreeZero for heap
// chunks); this package covers the third kind of copy the paper's
// discipline has to reach — transient Go byte slices produced while
// marshalling or parsing a key (DER, PEM armor, BIGNUM reads). Those
// slices live on the native heap where no simulated countermeasure can
// ever scrub them, so the code that creates one must zeroize it before
// letting it die.
//
// The //memlint:sink marker below declares Bytes to the keylifetime
// analyzer as a release point: a value tainted by a //memlint:source is
// proven clean only when every path to function exit passes it through a
// sink like this one (or returns it to the caller, transferring the
// obligation). See DESIGN.md §6.
package scrub

import "math/big"

// Bytes zeroizes b in place. A nil or empty slice is a no-op, so it is
// safe to defer immediately after a fallible producer:
//
//	der, err := pemfile.Decode(data)
//	defer scrub.Bytes(der)
//
//memlint:sink param=0
func Bytes(b []byte) {
	clear(b)
}

// Big zeroizes the limbs of a big.Int in place and resets its value to 0.
// The limb slice is the native-heap buffer a *big.Int actually keeps key
// material in — garbage collection never clears it, so code that builds a
// big.Int from key bytes (SetBytes on a DER integer, say) must release it
// here on every path that does not hand the value on. A nil pointer or
// zero value is a no-op, mirroring Bytes.
//
//memlint:sink param=0
func Big(v *big.Int) {
	if v == nil {
		return
	}
	bits := v.Bits()
	for i := range bits {
		bits[i] = 0
	}
	v.SetInt64(0)
}
