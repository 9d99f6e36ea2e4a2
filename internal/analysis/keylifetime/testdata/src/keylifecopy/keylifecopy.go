// Package keylifecopy pins copying as a taint edge: a helper that copies
// key bytes into a fresh buffer — with copy(), element by element or
// through a range loop — hands back key bytes, and so does a parser that
// copies integers out of a decoded DER buffer: every part of a key
// rsakey.ParsePEM returns is key material.
package keylifecopy

import (
	"math/big"

	"memshield/internal/crypto/rsakey"
)

// newKey mints fixture key material.
//
//memlint:source result=0
func newKey() []byte { return nil }

// wipe is the fixture's zeroizing release.
//
//memlint:sink param=0
func wipe(b []byte) { clear(b) }

// use consumes a value without releasing it.
func use(v any) {}

// dup returns a fresh copy of b.
func dup(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// LeakDup releases the key but not the copy dup made of it.
func LeakDup() {
	k := newKey()
	defer wipe(k)
	d := dup(k) // want `key material in d \(keylifecopy\.newKey via keylifecopy\.dup\) is not zeroized on every path`
	use(d)
}

// CleanDup releases both.
func CleanDup() {
	k := newKey()
	defer wipe(k)
	d := dup(k)
	defer wipe(d)
	use(d)
}

// dupEach copies b one element at a time.
func dupEach(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[i]
	}
	return out
}

// dupRange copies b through a range loop's value.
func dupRange(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		out = append(out, c)
	}
	return out
}

// LeakEach releases the key but not an element-by-element copy of it.
func LeakEach() {
	k := newKey()
	defer wipe(k)
	d := dupEach(k) // want `key material in d \(keylifecopy\.newKey via keylifecopy\.dupEach\) is not zeroized on every path`
	use(d)
}

// LeakRange releases the key but not a range-loop copy of it.
func LeakRange() {
	k := newKey()
	defer wipe(k)
	d := dupRange(k) // want `key material in d \(keylifecopy\.newKey via keylifecopy\.dupRange\) is not zeroized on every path`
	use(d)
}

// LeakParsed copies the private exponent of a parsed key into a big.Int
// that nothing can ever scrub.
func LeakParsed(data []byte) error {
	key, err := rsakey.ParsePEM(data)
	if err != nil {
		return err
	}
	use(new(big.Int).Set(key.D)) // want `result of big\.Set carries key material \(pemfile\.Decode via rsakey\.ParseParts → rsakey\.DecodePEM via rsakey\.key → rsakey\.ParsePEM via big\.Set\) but is consumed anonymously`
	return nil
}
