// Event scheduler: a manual binary min-heap of virtual-tick events, the
// core of the fleet engine's O(1)-per-idle-tick cost model. The per-tick
// driver of internal/sim touches every open connection every tick; the
// fleet engine instead schedules each connection's own arrivals,
// transfers and retirements as heap events, so a tick with no due events
// costs one heap peek and one kernel tick — idle connections cost nothing.
//
// Ordering is total and deterministic: events pop in (tick, seq) order,
// where seq is the machine's monotonically increasing schedule counter.
// Two events scheduled for the same tick therefore replay in the order
// they were scheduled, on every run, at every shard/worker count — the
// property the fleet's byte-identical fingerprint contract rests on.
package fleet

// eventKind names one scheduled machine event.
type eventKind uint8

const (
	// evArrival is the self-rescheduling connection-arrival process.
	evArrival eventKind = iota + 1
	// evClose retires one open connection slot.
	evClose
	// evChurn moves payload on one open connection.
	evChurn
)

// event is one scheduled occurrence. slot/gen address a connection table
// entry; gen guards against a slot recycled after an error teardown.
type event struct {
	tick uint64
	seq  uint64
	kind eventKind
	slot int32
	gen  uint32
}

// before is the heap order: earliest tick first, schedule order breaking
// ties.
func (e event) before(o event) bool {
	if e.tick != o.tick {
		return e.tick < o.tick
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events. It is hand-rolled rather than
// container/heap-based because the fleet package is in the nopanic scope
// (policy.SimMachinePackages): every operation here reports emptiness with
// an ok bool instead of panicking, and the sift loops are bounds-safe by
// construction.
type eventHeap struct {
	ev      []event
	nextSeq uint64
}

// push schedules an event, assigning its tie-break sequence number.
func (h *eventHeap) push(e event) {
	e.seq = h.nextSeq
	h.nextSeq++
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].before(h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// peek returns the earliest event without removing it.
func (h *eventHeap) peek() (event, bool) {
	if len(h.ev) == 0 {
		return event{}, false
	}
	return h.ev[0], true
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() (event, bool) {
	n := len(h.ev)
	if n == 0 {
		return event{}, false
	}
	top := h.ev[0]
	h.ev[0] = h.ev[n-1]
	h.ev = h.ev[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.ev[l].before(h.ev[smallest]) {
			smallest = l
		}
		if r < n && h.ev[r].before(h.ev[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top, true
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}

// size returns the number of pending events.
func (h *eventHeap) size() int { return len(h.ev) }
