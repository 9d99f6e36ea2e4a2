// Package keycopypts pins the points-to retrofit: a key-material
// source called through a function value — a short-var binding, a var
// declaration, a struct field — taints exactly like the direct call
// instead of slipping past the static-callee lookup.
package keycopypts

import "bytes"

// material mints fixture key bytes.
//
//memlint:source result=0
func material() []byte { return nil }

// local mints unremarkable bytes: not a source.
func local() []byte { return make([]byte, 4) }

// cached is the long-lived native location.
var cached []byte

// holder carries a source behind a struct field.
type holder struct{ fn func() []byte }

// LeakViaLocal reaches the source through a short-var binding.
func LeakViaLocal() {
	src := material
	k := src()
	cached = k // want `private-key material escapes into long-lived package-level variable cached`
}

// LeakViaVarDecl reaches it through a var declaration.
func LeakViaVarDecl() {
	var src = material
	k := src()
	cached = k // want `private-key material escapes into long-lived package-level variable cached`
}

// LeakViaField reaches it through a struct-field function value.
func LeakViaField() {
	h := holder{fn: material}
	k := h.fn()
	cached = k // want `private-key material escapes into long-lived package-level variable cached`
}

// LeakViaMixedField reaches it through a field that may also hold a
// caller's function: the target set is incomplete, and one possible
// source target is enough.
func LeakViaMixedField(alt func() []byte, other bool) {
	h := holder{fn: material}
	if other {
		h.fn = alt
	}
	cached = h.fn() // want `private-key material escapes into long-lived package-level variable cached`
}

// LeakClone clones the func-value result directly.
func LeakClone() {
	src := material
	_ = bytes.Clone(src()) // want `bytes\.Clone duplicates private-key material`
}

// CleanLocalUse keeps the func-value result transient: no finding.
func CleanLocalUse() {
	src := material
	k := src()
	_ = k
}

// CleanOtherFunc calls a non-source through a function value; the
// resolved target set proves there is nothing to taint.
func CleanOtherFunc() {
	src := local
	cached = src()
}
