// Package keycopyinter pins keycopy's interprocedural taint: key bytes
// that come back out of a helper — a view of its argument, or a fresh
// copy of it — are still key bytes, while a helper whose result carries
// nothing of its argument launders nothing.
package keycopyinter

// material mints fixture key bytes.
//
//memlint:source result=0
func material() []byte { return nil }

// stash is the long-lived native location.
var stash []byte

// holder keeps bytes behind a struct field.
type holder struct{ b []byte }

// tail returns a view into its argument.
func tail(b []byte) []byte { return b[4:] }

// dup returns a fresh copy of its argument.
func dup(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// header returns fixed bytes; its argument never reaches the result.
func header(b []byte) []byte { return make([]byte, len(b)) }

// LeakView parks a helper-returned view in a package-level variable.
func LeakView() {
	k := material()
	stash = tail(k) // want `private-key material escapes into long-lived package-level variable stash`
}

// LeakCopy parks a helper-made copy in a struct field.
func LeakCopy(h *holder) {
	k := material()
	h.b = dup(k) // want `private-key material escapes into long-lived struct field b`
}

// LeakSourceView parks a view of a source's result straight away.
func LeakSourceView() {
	stash = material()[4:] // want `private-key material escapes into long-lived package-level variable stash`
}

// CleanHeader stores a result the helper's summary proves key-free.
func CleanHeader() {
	k := material()
	stash = header(k)
}
