// Package stitchleak sits under the internal/attack/ prefix and
// reproduces the ttyleak wrap-around stitch that the flow-insensitive
// pass false-positived on: a dump variable that aliases a view on one
// path and owns a fresh buffer on the other.
package stitchleak

import "memshield/internal/mem"

// Stitch mirrors internal/attack/ttyleak.Run. On the contiguous path dump
// aliases the view; on the wrap path dump is a fresh attacker-owned buffer
// that views are appended INTO. No append writes through a view, and dump
// is only passed down to count, so the whole function must be silent.
func Stitch(m *mem.Memory, offset, size, memSize int, count func([]byte) int) int {
	var dump []byte
	if offset+size <= memSize {
		view, err := m.View(mem.Addr(offset), size)
		if err != nil {
			return 0
		}
		dump = view
	} else {
		head := memSize - offset
		dump = make([]byte, 0, size)
		tail, err := m.View(mem.Addr(offset), head)
		if err != nil {
			return 0
		}
		dump = append(dump, tail...)
		front, err := m.View(0, size-head)
		if err != nil {
			return 0
		}
		dump = append(dump, front...)
	}
	return count(dump)
}

// AfterJoin is the unsound variant: past the join dump may alias physical
// memory (the view path), so a mutating append is flagged, and so is
// returning it.
func AfterJoin(m *mem.Memory, wrap bool) []byte {
	var dump []byte
	if wrap {
		dump = make([]byte, 8)
	} else {
		v, err := m.View(0, 8)
		if err != nil {
			return nil
		}
		dump = v
	}
	dump = append(dump, 0xff) // want `append writes through a physical-memory view`
	return dump               // want `physical-memory view escapes: returned`
}
