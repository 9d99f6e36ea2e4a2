// Package sealwincopy pins the ways window bytes travel besides plain
// assignment: key bytes copied into a fresh buffer, handed back by a
// helper, bound by a range loop, read out of a map entry or fetched
// through a function value are still key bytes, so they may not outlive
// the callback any more than the original — whatever order the
// callback's statements run in.
package sealwincopy

type Region struct{}

// WithOpen is the fixture's window.
//
//memlint:window param=0
func (r *Region) WithOpen(fn func() error) error { return fn() }

// Open reads the plaintext key bytes.
//
//memlint:source result=0
func Open() []byte { return make([]byte, 16) }

// Wipe zeroizes.
//
//memlint:sink param=0
func Wipe(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// dup returns a fresh copy of b.
func dup(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// CopyEscapes copies the key into a callback-local buffer, then parks
// that buffer in a variable that outlives the window.
func CopyEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		buf := make([]byte, len(k))
		copy(buf, k)
		grab = buf // want `assigned to grab, which is declared outside the callback`
		Wipe(k)
		return nil
	})
	return grab, err
}

// DupEscapes does the same through a copying helper.
func DupEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		grab = dup(k) // want `assigned to grab, which is declared outside the callback`
		Wipe(k)
		return nil
	})
	return grab, err
}

// StoreBeforeCopy parks the buffer first and fills it afterwards: the
// alias outlives the window all the same.
func StoreBeforeCopy(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		buf := make([]byte, len(k))
		grab = buf // want `assigned to grab, which is declared outside the callback`
		copy(buf, k)
		Wipe(k)
		return nil
	})
	return grab, err
}

// StoreBeforeAppend does the same with append into the parked buffer.
func StoreBeforeAppend(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		buf := make([]byte, 0, len(k))
		grab = buf // want `assigned to grab, which is declared outside the callback`
		buf = append(buf[:0], k...)
		Wipe(k)
		return nil
	})
	return grab, err
}

// dupEach copies b one element at a time.
func dupEach(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[i] = b[i]
	}
	return out
}

// EachEscapes lets an element-by-element copy escape.
func EachEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		grab = dupEach(k) // want `assigned to grab, which is declared outside the callback`
		Wipe(k)
		return nil
	})
	return grab, err
}

// ring is a buffer object: Write copies into its array, Bytes hands out
// a view of it.
type ring struct {
	buf [64]byte
	n   int
}

func (w *ring) Write(p []byte) { w.n += copy(w.buf[w.n:], p) }

func (w *ring) Bytes() []byte { return w.buf[:w.n] }

// dupRing copies b through a buffer object.
func dupRing(b []byte) []byte {
	var w ring
	w.Write(b)
	return w.Bytes()
}

// RingEscapes lets a copy made through a buffer object escape.
func RingEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		grab = dupRing(k) // want `assigned to grab, which is declared outside the callback` `passed to dupRing, which retains its argument`
		Wipe(k)
		return nil
	})
	return grab, err
}

// source holds a function value that may or may not read the key.
type source struct{ fn func() []byte }

// MixedTargets reads through a field that holds either the source or a
// caller's function: one possible source target is enough.
func MixedTargets(r *Region, alt func() []byte, other bool) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		s := source{fn: Open}
		if other {
			s.fn = alt
		}
		grab = s.fn() // want `assigned to grab, which is declared outside the callback`
		return nil
	})
	return grab, err
}

// RangeEscapes lets a range-bound part of the key escape.
func RangeEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		parts := [][]byte{Open()}
		for _, p := range parts {
			grab = p // want `assigned to grab, which is declared outside the callback`
		}
		return nil
	})
	return grab, err
}

// MapEscapes lets a key read back out of a map entry escape.
func MapEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		m := map[string][]byte{"k": Open()}
		if v, ok := m["k"]; ok {
			grab = v // want `assigned to grab, which is declared outside the callback`
		}
		return nil
	})
	return grab, err
}

// CopyThroughPointer copies into a buffer reached through a pointer.
func CopyThroughPointer(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		k := Open()
		p := new([]byte)
		*p = make([]byte, len(k))
		copy(*p, k)
		grab = *p // want `assigned to grab, which is declared outside the callback`
		Wipe(k)
		return nil
	})
	return grab, err
}

// frame is a struct that carries a buffer.
type frame struct{ buf []byte }

// CopyIntoField copies into a field, then parks the whole struct.
func CopyIntoField(r *Region) (frame, error) {
	var grab frame
	err := r.WithOpen(func() error {
		k := Open()
		var f frame
		f.buf = make([]byte, len(k))
		copy(f.buf, k)
		grab = f // want `assigned to grab, which is declared outside the callback`
		Wipe(k)
		return nil
	})
	return grab, err
}

// ViewEscapes parks a view of the source's result directly.
func ViewEscapes(r *Region) ([]byte, error) {
	var grab []byte
	err := r.WithOpen(func() error {
		grab = Open()[4:] // want `assigned to grab, which is declared outside the callback`
		return nil
	})
	return grab, err
}
