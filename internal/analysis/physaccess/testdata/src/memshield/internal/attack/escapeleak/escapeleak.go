// Package escapeleak sits under the internal/attack/ prefix, so taking a
// view is allowed here; every way a view can leave the function that took
// it is still flagged.
package escapeleak

import "memshield/internal/mem"

type capture struct{ dump []byte }

var last []byte

// Dump hands the alias to its caller, as the public facade's DumpMemory
// once did.
func Dump(m *mem.Memory) []byte {
	v, err := m.View(0, m.Size())
	if err != nil {
		return nil
	}
	return v // want `physical-memory view escapes: returned`
}

// Forward returns the View call's results directly.
func Forward(m *mem.Memory) ([]byte, error) {
	return m.View(0, 8) // want `physical-memory view escapes: returned`
}

// Named hands a view back through a named result and a bare return.
func Named(m *mem.Memory) (v []byte) {
	v, _ = m.View(0, 8)
	return // want `physical-memory view escapes: returned as result v`
}

// Stored keeps views where they outlive the call.
func Stored(m *mem.Memory, c *capture, byName map[string][]byte, all [][]byte, p *[]byte) [][]byte {
	v, _ := m.View(0, 8)
	c.dump = v                         // want `physical-memory view escapes: stored in a field`
	last = v[2:]                       // want `physical-memory view escapes: stored in a global`
	byName["k"] = v                    // want `physical-memory view escapes: stored in a map`
	all[0] = v                         // want `physical-memory view escapes: stored in a slice`
	*p = v                             // want `physical-memory view escapes: stored through a pointer`
	c.dump, _ = m.View(8, 8)           // want `physical-memory view escapes: stored in a field`
	all = append(all, v)               // want `physical-memory view escapes: stored in a slice`
	_ = &capture{dump: v}              // want `physical-memory view escapes: stored in a field`
	return append(all, [][]byte{v}...) // want `physical-memory view escapes: stored in a slice`
}

// Sent hands a view to another goroutine.
func Sent(m *mem.Memory, ch chan<- []byte, use func([]byte)) {
	v, _ := m.View(0, 8)
	ch <- v   // want `physical-memory view escapes: sent on a channel`
	go use(v) // want `physical-memory view escapes: passed to a goroutine`
	go func() {
		use(v) // want `physical-memory view escapes: captured by a closure`
	}()
}

// Later captures a view in a closure that outlives the call.
func Later(m *mem.Memory) func() byte {
	v, _ := m.View(0, 8)
	return func() byte {
		return v[0] + v[1] // want `physical-memory view escapes: captured by a closure`
	}
}

// Read is what a disclosure does with a view, and is silent: read it, copy
// the bytes out, pass it down to a call, read it in a deferred closure.
func Read(m *mem.Memory, count func([]byte) int) (int, []byte) {
	v, _ := m.View(0, 8)
	n := count(v)
	out := append([]byte(nil), v...)
	head := v[:4]
	defer func() { n += int(head[0]) }()
	return n + len(head), out
}
