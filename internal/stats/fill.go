package stats

import "encoding/binary"

// Fill overwrites dst with the splitmix64 stream keyed by seed: word i is
// mix64(seed + (i+1)·golden), written little-endian, with the last word
// truncated when len(dst) is not a multiple of 8. Seeding is O(1) and Fill
// allocates nothing, so it is the filler for simulated traffic (handshake
// nonces, session junk, transfer payloads) where a math/rand source — 5 KiB
// of state and microseconds of seeding per stream — would cost more than
// the memory behaviour being simulated. The stream for a given seed is
// fixed: a shorter Fill is always a prefix of a longer one.
func Fill(dst []byte, seed int64) {
	s := uint64(seed)
	for len(dst) >= 8 {
		s += golden
		binary.LittleEndian.PutUint64(dst, mix64(s))
		dst = dst[8:]
	}
	if len(dst) > 0 {
		s += golden
		v := mix64(s)
		for i := range dst {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}

// Scratch is a reusable buffer of Fill output: one per simulated server
// keeps filler bytes off the Go heap on the per-connection path. The zero
// value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	buf []byte
}

// Fill returns the first n bytes of seed's Fill stream. The slice aliases
// the scratch buffer and is valid only until the next call, so callers copy
// it out (into simulated memory) before filling again.
func (s *Scratch) Fill(n int, seed int64) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	b := s.buf[:n]
	Fill(b, seed)
	return b
}
