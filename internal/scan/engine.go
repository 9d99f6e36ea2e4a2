// The single-pass multi-pattern search engine behind every scan in this
// package (DESIGN.md §9): a sampled q-gram filter. With m the shortest
// pattern length, the engine reads one q-byte gram (q = min(4, m)) every
// s = m-q+1 bytes and tests it against a bitmap holding every pattern's
// grams at offsets 0..s-1. Any occurrence contains exactly one probe
// position in its first s bytes, so a hit names the few candidate starts
// worth verifying and everything else is skipped 29 bytes at a time for
// 512-bit keys (P and Q are 32 bytes). One traversal serves every pattern
// and emits every (possibly overlapping) occurrence in (offset, pattern
// index) order, with no sort.
package scan

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
)

// maxGram is the longest gram the filter samples: one 32-bit load.
const maxGram = 4

// gramMul is the multiplicative hash (2^32/φ) that spreads grams over the
// filter's bits; the filter bit of gram g is the top bits of g·gramMul.
const gramMul = 0x9E3779B1

// dispatch is a set of patterns compiled for single-pass search.
type dispatch struct {
	// pats holds the non-empty pattern byte strings, in caller order.
	pats [][]byte
	// order maps a compiled pattern index back to the caller's index in
	// the original []Pattern slice (empty patterns are dropped).
	order []int
	// maxLen is the longest pattern length (0 when there are none).
	maxLen int
	// q is the gram length and stride the probe spacing: q+stride-1 is
	// the shortest pattern length, so a probe's gram at candidate offset
	// k < stride always lies inside the occurrence.
	q, stride int
	// shift maps a hashed gram to its filter bit: (g·gramMul) >> shift.
	shift uint
	// filter has bit h set iff some candidate's gram hashes to h.
	filter []uint64
	// rank[w] counts the set bits in filter[:w], so a set bit's rank r
	// (its index among all set bits) costs one popcount.
	rank []int32
	// cands[bucket[r]:bucket[r+1]] are the candidates hashing to the set
	// bit of rank r, ordered by (k descending, pattern ascending) — that
	// is, by (start offset, pattern) for one probe.
	bucket []int32
	cands  []cand
}

// cand says a probe's gram may be bytes [k, k+q) of pattern pat, which
// would then start k bytes before the probe.
type cand struct {
	gram uint32
	pat  int32
	k    int32
}

// compile builds the filter. Empty patterns are skipped (they can never
// match), duplicates are kept (each caller index reports its own matches,
// exactly like the per-pattern loops did).
func compile(patterns []Pattern) *dispatch {
	d := &dispatch{}
	shortest := 0
	for i, p := range patterns {
		n := len(p.Bytes)
		if n == 0 {
			continue
		}
		d.pats = append(d.pats, p.Bytes)
		d.order = append(d.order, i)
		d.maxLen = max(d.maxLen, n)
		if shortest == 0 || n < shortest {
			shortest = n
		}
	}
	if len(d.pats) == 0 {
		return d
	}
	d.q = min(maxGram, shortest)
	d.stride = shortest - d.q + 1
	d.cands = make([]cand, 0, len(d.pats)*d.stride)
	for ci, p := range d.pats {
		for k := 0; k < d.stride; k++ {
			d.cands = append(d.cands, cand{gram: gram(p[k:], d.q), pat: int32(ci), k: int32(k)})
		}
	}
	// At least 64 filter bits per candidate keeps a random gram's false
	// hit rate under 1/64, within 64 bits to 8 KiB of bitmap.
	logBits := min(max(bits.Len(uint(64*len(d.cands)-1)), 6), 16)
	d.shift = uint(32 - logBits)
	slices.SortFunc(d.cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(d.hash(a.gram), d.hash(b.gram)),
			cmp.Compare(b.k, a.k), cmp.Compare(a.pat, b.pat))
	})
	d.filter = make([]uint64, 1<<logBits/64)
	for i, c := range d.cands {
		h := d.hash(c.gram)
		if d.filter[h/64]&(1<<(h%64)) == 0 {
			d.filter[h/64] |= 1 << (h % 64)
			d.bucket = append(d.bucket, int32(i))
		}
	}
	d.bucket = append(d.bucket, int32(len(d.cands)))
	d.rank = make([]int32, len(d.filter))
	var r int32
	for w, word := range d.filter {
		d.rank[w] = r
		r += int32(bits.OnesCount64(word))
	}
	return d
}

// gram reads the q-byte gram at the start of b (len(b) >= q) as a
// little-endian integer.
func gram(b []byte, q int) uint32 {
	if q == maxGram {
		return binary.LittleEndian.Uint32(b)
	}
	var g uint32
	for i := q - 1; i >= 0; i-- {
		g = g<<8 | uint32(b[i])
	}
	return g
}

// hash maps a gram to its filter bit.
func (d *dispatch) hash(g uint32) uint32 { return g * gramMul >> d.shift }

// skip returns the first probe position from t (a multiple of the stride)
// up to last whose gram hits the filter, or last+1 when none does. It is
// the call-free inner loop the scan spends nearly all its time in.
func (d *dispatch) skip(win []byte, t, last int) int {
	// Fields copied to locals stay in registers; shift < 32 always, and
	// masking it says so to the compiler.
	q, stride, shift, filter := d.q, d.stride, d.shift&31, d.filter
	for ; t <= last; t += stride {
		if h := gram(win[t:], q) * gramMul >> shift; filter[h/64]&(1<<(h%64)) != 0 {
			return t
		}
	}
	return last + 1
}

// scan emits every pattern occurrence that STARTS in win[:maxStart], in
// (offset, caller pattern index) order. A match may extend past maxStart
// as long as it fits inside win — callers pass a window with maxLen-1
// bytes of overlap past the region they own, which is how shard and frame
// boundaries stay seamless. emit returns false to stop the scan early.
//
// Probes sit at t = 0, s, 2s, …; an occurrence at x is verified only from
// its designated probe, the first t >= x, where k = t-x < s. Probe t thus
// owns starts (t-s, t], disjoint from and below the next probe's, and its
// bucket lists them in (offset, pattern) order, so the stream comes out
// ordered and each match once.
func (d *dispatch) scan(win []byte, maxStart int, emit func(off, pat int) bool) {
	maxStart = min(maxStart, len(win))
	if maxStart <= 0 || len(d.pats) == 0 {
		return
	}
	// The last start's designated probe is below maxStart+stride-1; a
	// probe whose gram overruns win lies inside no occurrence.
	last := min(maxStart+d.stride-2, len(win)-d.q)
	for t := d.skip(win, 0, last); t <= last; t = d.skip(win, t+d.stride, last) {
		g := gram(win[t:], d.q)
		h := d.hash(g)
		word, bit := d.filter[h/64], uint64(1)<<(h%64)
		r := d.rank[h/64] + int32(bits.OnesCount64(word&(bit-1)))
		for _, c := range d.cands[d.bucket[r]:d.bucket[r+1]] {
			x := t - int(c.k)
			if c.gram != g || x < 0 || x >= maxStart {
				continue
			}
			p := d.pats[c.pat]
			if len(p) <= len(win)-x && bytes.Equal(win[x:x+len(p)], p) && !emit(x, d.order[c.pat]) {
				return
			}
		}
	}
}
