// Package scan reimplements the paper's scanmemory loadable kernel module:
// a linear search over the whole of (simulated) physical memory for the
// byte patterns of the private key, annotating every match with whether the
// containing frame is allocated or unallocated and which processes map it
// (via the frame reverse map, the 2.6-kernel rmap the original tool used).
//
// Following Section 2 of the paper, the patterns tracked as
// disclosure-equivalent "copies of the private key" are d, P, Q, and the
// PEM-encoded key file; the CRT residues are deliberately not counted.
//
// The search runs on a three-layer engine (DESIGN.md §9): a single-pass
// sampled q-gram filter over all patterns (engine.go), a sharded parallel
// walk whose output is byte-identical at any worker count, and an incremental
// per-frame cache driven by the mem package's write generations, so a
// Scanner carried across timeline ticks re-walks only dirty frames.
//
// Sealed key memory (protect.LevelSealed) is invisible to this scanner by
// design: between operations the aligned region holds ciphertext, which
// never matches the plaintext d/P/Q patterns. A zero-match scan at the
// sealed level is therefore the expected ground truth, and core.Auditor
// treats any plaintext match under that level as a violation.
package scan

import (
	"cmp"
	"fmt"
	"slices"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/kernel"
	"memshield/internal/mem"
	"memshield/internal/runner"
)

// Part identifies which key component a pattern or match refers to.
type Part int

// Key parts tracked by the scanner.
const (
	PartD Part = iota + 1
	PartP
	PartQ
	PartPEM
)

func (p Part) String() string {
	switch p {
	case PartD:
		return "d"
	case PartP:
		return "p"
	case PartQ:
		return "q"
	case PartPEM:
		return "pem"
	default:
		return fmt.Sprintf("Part(%d)", int(p))
	}
}

// Pattern is one byte string to hunt for.
type Pattern struct {
	Part  Part
	Bytes []byte
}

// PatternsFor derives the four disclosure-equivalent patterns from a key.
func PatternsFor(key *rsakey.PrivateKey) []Pattern {
	return []Pattern{
		{Part: PartD, Bytes: key.D.Bytes()},
		{Part: PartP, Bytes: key.P.Bytes()},
		{Part: PartQ, Bytes: key.Q.Bytes()},
		{Part: PartPEM, Bytes: key.MarshalPEM()},
	}
}

// Match is one located copy of a key part.
type Match struct {
	Addr      mem.Addr
	Part      Part
	Allocated bool
	Owner     mem.Owner
	PIDs      []int // processes mapping the frame (empty = kernel/none)
}

// Summary aggregates a scan.
type Summary struct {
	Total       int
	Allocated   int
	Unallocated int
	ByPart      map[Part]int
}

// Stats counts the scanner's incremental-cache behaviour, cumulatively
// over the Scanner's lifetime. Tests use the deltas between scans to
// assert that untouched frames are never re-walked.
type Stats struct {
	// Scans is the number of Scan calls.
	Scans int
	// FramesScanned counts frames whose bytes were actually re-walked.
	FramesScanned int
	// FramesCached counts frames served from the per-frame match cache.
	FramesCached int
}

// frameMatch is one cached match position: a pattern occurrence starting
// inside the frame, stored relative to the frame base.
type frameMatch struct {
	off int32
	pat int32 // index into Scanner.patterns
}

// frameCache is the incremental state for one frame.
type frameCache struct {
	// genSum is the sum of the write generations of the frames the scan
	// window covered ([f, f+span]) when matches was computed. Generations
	// are stamped from a monotonic memory-wide counter, so any write
	// inside the window changes the sum.
	genSum uint64
	// matches holds the pattern occurrences starting in the frame, in
	// (offset, pattern index) order.
	matches []frameMatch
}

// Scanner scans one machine for one key's patterns.
type Scanner struct {
	k        *kernel.Kernel
	patterns []Pattern
	eng      *dispatch
	workers  int
	// span is how many frames past its own a frame's scan window reaches:
	// ceil((maxLen-1)/PageSize), so boundary-straddling matches are owned
	// by the frame they start in.
	span int
	// cache is the per-frame incremental state, allocated on first Scan.
	cache []frameCache
	// primed is false until the first full walk has populated the cache.
	primed bool
	// lastMut is the memory's mutation counter at the end of the last
	// Scan; an unchanged counter proves every cached frame is still valid.
	lastMut uint64
	stats   Stats
}

// Options tunes a Scanner.
type Options struct {
	// Workers is the shard fan-out for the parallel walk. 0 means one per
	// CPU (runner.Workers); 1 is the sequential reference path. Results
	// are byte-identical at every value (DESIGN.md §7/§9).
	Workers int
}

// New creates a scanner. Patterns are typically PatternsFor(key).
func New(k *kernel.Kernel, patterns []Pattern) *Scanner {
	return NewWith(k, patterns, Options{})
}

// NewWith creates a scanner with explicit options.
func NewWith(k *kernel.Kernel, patterns []Pattern, opts Options) *Scanner {
	ps := make([]Pattern, len(patterns))
	copy(ps, patterns)
	eng := compile(ps)
	span := 0
	if eng.maxLen > 1 {
		span = (eng.maxLen - 2 + mem.PageSize) / mem.PageSize
	}
	return &Scanner{k: k, patterns: ps, eng: eng, workers: opts.Workers, span: span}
}

// Stats returns the scanner's cumulative incremental-cache counters.
func (s *Scanner) Stats() Stats { return s.stats }

// Scan performs the linear search and classifies every match.
//
// The walk is incremental: only frames whose write generation changed
// since the previous Scan (on this Scanner) are re-searched; everything
// else is served from the per-frame match cache. Classification
// (allocated/unallocated, owner, reverse-mapped PIDs) is always read
// fresh from the frame metadata, because frame state can change without
// any byte of the frame being written.
func (s *Scanner) Scan() []Match {
	m := s.k.Mem()
	numFrames := m.NumPages()
	view, err := m.View(0, m.Size())
	if err != nil || numFrames == 0 {
		return nil // View over the full range cannot fail on a valid Memory
	}
	if s.cache == nil {
		s.cache = make([]frameCache, numFrames)
	}
	s.stats.Scans++

	if mut := m.Mutations(); !s.primed || mut != s.lastMut {
		s.rescanDirty(m, view, numFrames)
		s.primed = true
		s.lastMut = m.Mutations()
	} else {
		s.stats.FramesCached += numFrames
	}
	return s.emit(m)
}

// rescanDirty walks the frames across worker shards, re-searching runs of
// consecutive dirty frames and keeping cached results for the rest. Shard
// boundaries never affect output: each frame's matches are a pure function
// of its own window, and commits go to disjoint per-frame slots.
func (s *Scanner) rescanDirty(m *mem.Memory, view []byte, numFrames int) {
	workers := runner.Workers(s.workers)
	if workers > numFrames {
		workers = numFrames
	}
	perShard := (numFrames + workers - 1) / workers
	type shardStats struct{ scanned, cached int }
	// Cells touch disjoint frame ranges of s.cache, so the ordered-commit
	// contract of runner.Map makes the walk race-free and deterministic.
	res, err := runner.Map(workers, workers, func(si int) (shardStats, error) {
		lo := si * perShard
		hi := lo + perShard
		if hi > numFrames {
			hi = numFrames
		}
		var st shardStats
		f := lo
		for f < hi {
			sum := s.windowGenSum(m, f, numFrames)
			if s.primed && s.cache[f].genSum == sum {
				st.cached++
				f++
				continue
			}
			// Grow a run of consecutive dirty frames and search it as one
			// window — a cold scan degenerates to one window per shard.
			// Each run frame takes its new generation sum as the run grows.
			s.cache[f].genSum = sum
			run := f + 1
			for run < hi {
				rs := s.windowGenSum(m, run, numFrames)
				if s.primed && s.cache[run].genSum == rs {
					break
				}
				s.cache[run].genSum = rs
				run++
			}
			s.scanRun(view, f, run)
			st.scanned += run - f
			f = run
		}
		return st, nil
	})
	if err == nil {
		for _, st := range res {
			s.stats.FramesScanned += st.scanned
			s.stats.FramesCached += st.cached
		}
	}
}

// windowGenSum sums the write generations of the frames a scan window for
// frame f covers: f itself plus span following frames (clamped).
func (s *Scanner) windowGenSum(m *mem.Memory, f, numFrames int) uint64 {
	hi := f + s.span
	if hi >= numFrames {
		hi = numFrames - 1
	}
	var sum uint64
	for g := f; g <= hi; g++ {
		sum += m.Frame(mem.PageNum(g)).Gen()
	}
	return sum
}

// scanRun re-searches frames [lo, hi) in one pass. The window extends
// maxLen-1 bytes past the run so matches straddling the run's trailing
// boundary are found; matches are bucketed to the frame they start in,
// reusing each frame's match slice.
func (s *Scanner) scanRun(view []byte, lo, hi int) {
	base := mem.PageNum(lo).Base()
	runBytes := (hi - lo) * mem.PageSize
	end := min(int(base)+runBytes+s.eng.maxLen-1, len(view))
	for f := lo; f < hi; f++ {
		s.cache[f].matches = s.cache[f].matches[:0]
	}
	s.eng.scan(view[base:end], runBytes, func(off, pat int) bool {
		f := lo + off/mem.PageSize
		s.cache[f].matches = append(s.cache[f].matches, frameMatch{
			off: int32(off % mem.PageSize),
			pat: int32(pat),
		})
		return true
	})
}

// emit rebuilds the full match list from the per-frame cache in the
// scanner's canonical order — pattern-major, address-ascending, exactly
// the order the original one-pass-per-pattern search produced — and
// classifies every match against the frames' current metadata. It is a
// counting sort by pattern: one pass counts each pattern's matches, a
// second drops every match into its pattern's next slot in frame order,
// so the cost is O(frames + matches). Every match's PIDs are copied out
// of one backing slice, sized in the counting pass.
func (s *Scanner) emit(m *mem.Memory) []Match {
	next := make([]int, len(s.patterns))
	npids := 0
	for f := range s.cache {
		fms := s.cache[f].matches
		for _, fm := range fms {
			next[fm.pat]++
		}
		if len(fms) > 0 {
			npids += len(fms) * m.Frame(mem.PageNum(f)).NumMappers()
		}
	}
	total := 0
	for pi, n := range next {
		next[pi] = total
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, total)
	pids := make([]int, 0, npids)
	for f := range s.cache {
		for _, fm := range s.cache[f].matches {
			fr := m.Frame(mem.PageNum(f))
			start := len(pids)
			pids = fr.AppendMappers(pids)
			out[next[fm.pat]] = Match{
				Addr:      mem.PageNum(f).Base() + mem.Addr(fm.off),
				Part:      s.patterns[fm.pat].Part,
				Allocated: fr.State == mem.FrameAllocated,
				Owner:     fr.Owner,
				// Capped, so appending to one match's PIDs never
				// overwrites the next one's.
				PIDs: pids[start:len(pids):len(pids)],
			}
			next[fm.pat]++
		}
	}
	return out
}

// Summarize aggregates matches into counts.
func Summarize(matches []Match) Summary {
	sum := Summary{ByPart: make(map[Part]int)}
	for _, m := range matches {
		sum.Total++
		if m.Allocated {
			sum.Allocated++
		} else {
			sum.Unallocated++
		}
		sum.ByPart[m.Part]++
	}
	return sum
}

// CountInBuffer counts pattern occurrences inside an attacker-captured
// buffer (a USB stick full of mkdir leaks, or a tty memory dump). All
// patterns are counted in one pass over the buffer.
func CountInBuffer(buf []byte, patterns []Pattern) Summary {
	sum := Summary{ByPart: make(map[Part]int)}
	compile(patterns).scan(buf, len(buf), func(_, pat int) bool {
		sum.Total++
		sum.ByPart[patterns[pat].Part]++
		return true
	})
	return sum
}

// BufferMatch is one pattern occurrence inside a captured buffer.
type BufferMatch struct {
	Off  int
	Len  int
	Part Part
}

// FindAllInBuffer locates every pattern occurrence in the buffer in one
// pass, ordered by (Off, Part, Len) — the Part tie-break pins the order of
// distinct patterns matching at the same offset, which an unstable
// offset-only sort used to leave nondeterministic. Sweeps that evaluate
// multiple capture prefixes (e.g. "how many copies after D directories?"
// for several D) find all matches once and count by prefix instead of
// rescanning.
func FindAllInBuffer(buf []byte, patterns []Pattern) []BufferMatch {
	// The engine emits in (offset, pattern index) order, so compiling the
	// patterns stably sorted by (Part, Len) yields the documented order.
	ps := slices.Clone(patterns)
	slices.SortStableFunc(ps, func(a, b Pattern) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(len(a.Bytes), len(b.Bytes)))
	})
	var out []BufferMatch
	compile(ps).scan(buf, len(buf), func(off, pat int) bool {
		out = append(out, BufferMatch{Off: off, Len: len(ps[pat].Bytes), Part: ps[pat].Part})
		return true
	})
	return out
}

// FoundAny reports whether any pattern occurs in the buffer — the paper's
// attack "success" criterion (disclosure of any one part compromises the
// key). The single-pass engine stops at the first hit.
func FoundAny(buf []byte, patterns []Pattern) bool {
	found := false
	compile(patterns).scan(buf, len(buf), func(_, _ int) bool {
		found = true
		return false
	})
	return found
}
