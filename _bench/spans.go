package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded by the bench
// around the call. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64  `json:"req"`    // connection serial, -1 when no connection
}

// counters are the layer counters read at span boundaries; a span's
// delta is summed per span name.
type counters struct {
	Allocs, Frees, PagesZeroed  int
	CacheHits, CacheMisses      int
	FramesScanned, FramesCached int
	GoBytes                     uint64
}

func (c counters) minus(o counters) counters {
	return counters{
		Allocs: c.Allocs - o.Allocs, Frees: c.Frees - o.Frees, PagesZeroed: c.PagesZeroed - o.PagesZeroed,
		CacheHits: c.CacheHits - o.CacheHits, CacheMisses: c.CacheMisses - o.CacheMisses,
		FramesScanned: c.FramesScanned - o.FramesScanned, FramesCached: c.FramesCached - o.FramesCached,
		GoBytes: c.GoBytes - o.GoBytes,
	}
}

func (c *counters) add(o counters) {
	c.Allocs += o.Allocs
	c.Frees += o.Frees
	c.PagesZeroed += o.PagesZeroed
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.FramesScanned += o.FramesScanned
	c.FramesCached += o.FramesCached
	c.GoBytes += o.GoBytes
}

// recorder keeps spans and counter deltas in memory. A nil *recorder is
// the recorder switched off: every method is a no-op.
type recorder struct {
	epoch  time.Time
	spans  []span
	deltas map[string]*counters
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), deltas: map[string]*counters{}}
}

// open starts a span and returns its index (-1 when recording is off).
func (r *recorder) open(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return int32(len(r.spans) - 1)
}

// close ends span i.
func (r *recorder) close(i int32) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// count adds one counter delta to a span name's total.
func (r *recorder) count(name string, d counters) {
	if r == nil {
		return
	}
	c := r.deltas[name]
	if c == nil {
		c = &counters{}
		r.deltas[name] = c
	}
	c.add(d)
}

// delta returns the summed counter delta of a span name.
func (r *recorder) delta(name string) counters {
	if c := r.deltas[name]; c != nil {
		return *c
	}
	return counters{}
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other;
// the covered part is the length of the union of their intervals, clipped
// to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = math.MinInt64
		for _, v := range ivs {
			if v.lo > reach {
				covered += v.hi - v.lo
				reach = v.hi
			} else if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] -= covered
	}
	return self
}

// opStats summarizes the times of one kind of operation: the self times of
// every span of one name, or the timings of one probe.
type opStats struct {
	sorted []int64 // ns, ascending once sort has run
	sum    int64
}

func (o *opStats) add(d int64) {
	o.sorted = append(o.sorted, d)
	o.sum += d
}

func (o *opStats) sort() {
	sort.Slice(o.sorted, func(a, b int) bool { return o.sorted[a] < o.sorted[b] })
}

// byName groups span self times by span name.
func byName(spans []span) map[string]*opStats {
	self := selfTimes(spans)
	out := map[string]*opStats{}
	for i, s := range spans {
		o := out[s.Name]
		if o == nil {
			o = &opStats{}
			out[s.Name] = o
		}
		o.add(self[i])
	}
	for _, o := range out {
		o.sort()
	}
	return out
}

func (o *opStats) n() int {
	if o == nil {
		return 0
	}
	return len(o.sorted)
}

// quantile returns the nearest-rank q-quantile of the times in ns (0 when
// there are none).
func (o *opStats) quantile(q float64) float64 {
	if o.n() == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(o.sorted)))) - 1
	return float64(o.sorted[max(i, 0)])
}

// mean returns the mean time in ns (0 when there are none).
func (o *opStats) mean() float64 {
	if o.n() == 0 {
		return 0
	}
	return float64(o.sum) / float64(len(o.sorted))
}

// total returns the summed time in ns.
func (o *opStats) total() float64 {
	if o == nil {
		return 0
	}
	return float64(o.sum)
}

// goAllocSample reads the Go runtime's cumulative heap allocation counter
// without stopping the world (unlike runtime.ReadMemStats).
var goAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func goAllocBytes() uint64 {
	metrics.Read(goAllocSample)
	return goAllocSample[0].Value.Uint64()
}
