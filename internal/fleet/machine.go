package fleet

import (
	"fmt"
	"math"
	"runtime"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/kernel"
	"memshield/internal/scan"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// connSlot is one entry of the machine's fixed connection table. Slots are
// recycled through a free list; gen disambiguates a recycled slot from a
// stale heap event left behind by an error teardown.
type connSlot struct {
	gen       uint32
	tenant    int32
	openPos   int32 // index into machine.openSlots
	id        int   // current server connection ID
	serial    int64 // machine-wide monotonic connection number
	openedAt  uint64
	closeTick uint64
	// churnState is the connection's private splitmix64 stream for
	// transfer-gap draws, derived from the connection serial rather than
	// consumed from a shared stream, so churn draws never shift the
	// arrival/lifetime population.
	churnState uint64
}

// EventRecord is one population event of a machine's timeline, kept only
// under Config.KeepLogs (small runs, goldens). Conn is the machine-wide
// connection serial, not the server's connection ID: server IDs are a
// server-internal detail, serials are the population identity.
type EventRecord struct {
	Machine int
	Tick    uint64
	Kind    string
	Tenant  int
	Conn    int64
}

// machineResult is one machine's mergeable outcome. Everything here is
// either O(1) (counters, streams, fingerprint) or explicitly bounded (the
// reservoir, the optional log) — never O(total connections).
type machineResult struct {
	Arrivals  int64
	Completed int64
	Shed      int64
	Churns    int64
	Errors    int64
	PeakOpen  int
	FinalOpen int
	Windows   int64

	Copies        stats.Stream
	CopiesAlloc   stats.Stream
	CopiesUnalloc stats.Stream
	OpenGauge     stats.Stream
	Exposure      float64
	Lifetimes     *stats.Reservoir

	Fingerprint   uint64
	Log           []EventRecord
	PeakHeapBytes uint64
}

// machine drives one simulated host: a kernel, Tenants servers each with
// its own key, and the event heap. Like every simulated machine in this
// repo it is single-goroutine; the fleet shards whole machines, never the
// inside of one.
type machine struct {
	idx  int
	cfg  Config
	base int64

	k       *kernel.Kernel
	servers []host.Server
	scanner *scan.Scanner

	heap      eventHeap
	conns     []connSlot
	freeSlots []int32
	openSlots []int32

	rngArrival *randStream
	rngConn    *randStream

	// Continuous-time arrival process state: nextArrivalAt is the exact
	// (fractional-tick) time of the pending arrival event; burst phases
	// flip between base and boosted rates with seeded exponential
	// durations.
	nextArrivalAt float64
	inBurst       bool
	phaseEnd      uint64

	now    uint64
	serial int64
	res    machineResult
}

// randStream wraps the machine's exponential/uniform draws. It is
// a thin splitmix64 walk via stats.DeriveSeed so the draw sequence is a
// pure function of the derived seed — no math/rand state semantics to
// track across Go versions.
type randStream struct{ state int64 }

func newRandStream(seed int64) *randStream { return &randStream{state: seed} }

// uniform returns the next draw in [0, 1).
func (r *randStream) uniform() float64 {
	r.state = stats.DeriveSeed(r.state)
	return float64(uint64(r.state)>>11) / (1 << 53)
}

// exp returns an exponential draw with the given mean.
func (r *randStream) exp(mean float64) float64 {
	u := r.uniform()
	return -math.Log(1-u) * mean
}

// intn returns the next draw in [0, n).
func (r *randStream) intn(n int) int {
	if n <= 1 {
		return 0
	}
	r.state = stats.DeriveSeed(r.state)
	return int(uint64(r.state) % uint64(n))
}

// expFromState advances a raw splitmix64 state and returns an exponential
// draw — the per-connection churn stream, kept allocation-free.
func expFromState(state uint64, mean float64) (uint64, float64) {
	next := uint64(stats.DeriveSeed(int64(state)))
	u := float64(next>>11) / (1 << 53)
	return next, -math.Log(1-u) * mean
}

// tenantKeyPath is tenant t's key file on its machine.
func tenantKeyPath(t int) string { return fmt.Sprintf("/etc/keys/tenant-%d.key", t) }

// newMachine boots machine idx for the run: per-tenant keys, kernel,
// servers, scanner (when windows are sampled), and the first arrival.
// Sub-streams of the machine seed: 1=arrivals, 2=connection lifetimes,
// 3=tenant keygen, 4=tenant server, 5=free-list scramble, 6=per-connection
// churn gaps.
func newMachine(cfg Config, idx int) (*machine, error) {
	base := stats.DeriveSeed(cfg.Seed, int64(idx))
	keys := make([]host.Key, cfg.Tenants)
	var patterns []scan.Pattern
	for t := range keys {
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(base, 3, int64(t))), cfg.KeyBits)
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d tenant %d: %w", idx, t, err)
		}
		keys[t] = host.Key{Path: tenantKeyPath(t), Key: key}
		if cfg.SampleEvery > 0 {
			patterns = append(patterns, scan.PatternsFor(key)...)
		}
	}
	k, err := host.Boot(kernel.Config{
		MemPages:      cfg.MemPages,
		SwapPages:     cfg.SwapPages,
		DeallocPolicy: cfg.Level.KernelPolicy(),
	}, stats.DeriveSeed(base, 5), keys...)
	if err != nil {
		return nil, fmt.Errorf("fleet: machine %d: %w", idx, err)
	}
	m := &machine{
		idx: idx, cfg: cfg, base: base, k: k,
		servers:    make([]host.Server, 0, cfg.Tenants),
		conns:      make([]connSlot, cfg.MaxOpen),
		freeSlots:  make([]int32, 0, cfg.MaxOpen),
		openSlots:  make([]int32, 0, cfg.MaxOpen),
		rngArrival: newRandStream(stats.DeriveSeed(base, 1)),
		rngConn:    newRandStream(stats.DeriveSeed(base, 2)),
	}
	for i := cfg.MaxOpen - 1; i >= 0; i-- {
		m.freeSlots = append(m.freeSlots, int32(i))
	}
	for t := 0; t < cfg.Tenants; t++ {
		srv, err := m.startTenant(t)
		if err != nil {
			return nil, fmt.Errorf("fleet: machine %d tenant %d: %w", idx, t, err)
		}
		m.servers = append(m.servers, srv)
	}
	if cfg.SampleEvery > 0 {
		// One scan worker per machine: the fleet already parallelizes by
		// machine, and nested fan-out would oversubscribe the shards.
		m.scanner = scan.NewWith(k, patterns, scan.Options{Workers: 1})
	}
	if cfg.LifetimeSample > 0 {
		m.res.Lifetimes = stats.NewReservoir(cfg.LifetimeSample, stats.DeriveSeed(base, 7))
	}
	m.scheduleArrival()
	return m, nil
}

// startTenant boots tenant t's server at the machine's protection level.
func (m *machine) startTenant(t int) (host.Server, error) {
	seed := stats.DeriveSeed(m.base, 4, int64(t))
	switch m.cfg.Kind {
	case KindHTTPD:
		s, err := httpd.Start(m.k, httpd.Config{
			KeyPath: tenantKeyPath(t), Level: m.cfg.Level, Seed: seed,
			MaxClients:   m.cfg.MaxOpen + 4,
			StartServers: 1, MinSpareServers: 1, MaxSpareServers: 2,
		})
		if err != nil {
			return nil, err
		}
		return host.HTTPD{Server: s}, nil
	default:
		s, err := sshd.Start(m.k, sshd.Config{
			KeyPath: tenantKeyPath(t), Level: m.cfg.Level, Seed: seed,
			SessionBufferBytes: m.cfg.SessionBufferBytes,
		})
		if err != nil {
			return nil, err
		}
		return host.SSHD{Server: s}, nil
	}
}

// arrivalRate returns the arrival rate in effect at a tick, advancing the
// burst phase schedule as far as needed. Phases are drawn lazily from the
// arrival stream.
func (m *machine) arrivalRate(tick uint64) float64 {
	for tick >= m.phaseEnd {
		mean := m.cfg.BurstOffTicks
		if m.inBurst {
			// The burst we were in ended; an off phase begins.
			m.inBurst = false
		} else {
			m.inBurst = true
			mean = m.cfg.BurstOnTicks
		}
		m.phaseEnd += 1 + uint64(m.rngArrival.exp(mean))
	}
	rate := m.cfg.ArrivalRate
	if m.inBurst {
		rate *= m.cfg.BurstFactor
	}
	return rate
}

// scheduleArrival books the next connection arrival from the continuous
// Poisson process: exponential inter-arrival gaps scaled by the burst
// phase in effect, quantized to the tick the fractional time lands in.
// Gaps shorter than a tick naturally yield several arrivals in one tick.
func (m *machine) scheduleArrival() {
	rate := m.arrivalRate(uint64(m.nextArrivalAt))
	if rate <= 0 {
		return
	}
	m.nextArrivalAt += m.rngArrival.exp(1 / rate)
	tick := uint64(m.nextArrivalAt)
	if tick > m.cfg.Horizon {
		return
	}
	if tick < m.now {
		tick = m.now
	}
	m.heap.push(event{tick: tick, kind: evArrival})
}

// record folds one population event into the machine fingerprint (and the
// log when kept). The fingerprint is a splitmix64 chain over the full
// record, so any divergence — ordering included — changes it.
func (m *machine) record(kind string, kindCode int64, tenant int, conn int64) {
	m.res.Fingerprint = uint64(stats.DeriveSeed(int64(m.res.Fingerprint),
		int64(m.now), kindCode, int64(tenant), conn))
	if m.cfg.KeepLogs {
		m.res.Log = append(m.res.Log, EventRecord{
			Machine: m.idx, Tick: m.now, Kind: kind, Tenant: tenant, Conn: conn,
		})
	}
}

// Fingerprint event codes (append-only; part of the replay contract).
const (
	fpArrival = int64(iota + 1)
	fpClose
	fpShed
	fpError
)

// FingerprintOf recomputes a fingerprint chain from a kept event log —
// the test-side half of the replay contract.
func FingerprintOf(log []EventRecord) uint64 {
	var fp uint64
	for _, e := range log {
		var code int64
		switch e.Kind {
		case "arrival":
			code = fpArrival
		case "close":
			code = fpClose
		case "shed":
			code = fpShed
		default:
			code = fpError
		}
		fp = uint64(stats.DeriveSeed(int64(fp), int64(e.Tick), code, int64(e.Tenant), e.Conn))
	}
	return fp
}

// arrive handles one arrival event: pick a tenant, draw the lifetime,
// open the connection (or shed it at the open cap), and book the close
// and the first churn.
func (m *machine) arrive() {
	// Draw order is part of the replay contract: tenant from the arrival
	// stream, lifetime from the connection stream — exactly one draw each
	// per arrival.
	tenant := m.rngArrival.intn(m.cfg.Tenants)
	life := 1 + uint64(m.rngConn.exp(m.cfg.LifetimeTicks))
	serial := m.serial
	m.serial++
	m.res.Arrivals++
	if len(m.freeSlots) == 0 {
		m.res.Shed++
		m.record("shed", fpShed, tenant, serial)
		m.scheduleArrival()
		return
	}
	id, err := m.servers[tenant].Connect()
	if err != nil {
		m.res.Errors++
		m.record("error", fpError, tenant, serial)
		m.scheduleArrival()
		return
	}
	si := m.freeSlots[len(m.freeSlots)-1]
	m.freeSlots = m.freeSlots[:len(m.freeSlots)-1]
	slot := &m.conns[si]
	slot.gen++
	slot.tenant = int32(tenant)
	slot.id = id
	slot.serial = serial
	slot.openedAt = m.now
	slot.closeTick = m.now + life
	slot.openPos = int32(len(m.openSlots))
	m.openSlots = append(m.openSlots, si)
	if len(m.openSlots) > m.res.PeakOpen {
		m.res.PeakOpen = len(m.openSlots)
	}
	m.record("arrival", fpArrival, tenant, serial)
	m.heap.push(event{tick: slot.closeTick, kind: evClose, slot: si, gen: slot.gen})
	slot.churnState = uint64(stats.DeriveSeed(m.base, 6, serial))
	m.scheduleChurn(si)
	if err := m.servers[tenant].Churn(id, m.cfg.TransferBytes); err != nil {
		m.res.Errors++
		m.teardown(si)
	}
	m.scheduleArrival()
}

// scheduleChurn books the connection's next transfer from its private
// gap stream, if it lands before the close.
func (m *machine) scheduleChurn(si int32) {
	slot := &m.conns[si]
	state, gap := expFromState(slot.churnState, m.cfg.ChurnGapTicks)
	slot.churnState = state
	next := m.now + 1 + uint64(gap)
	if next >= slot.closeTick || next > m.cfg.Horizon {
		return
	}
	m.heap.push(event{tick: next, kind: evChurn, slot: si, gen: slot.gen})
}

// closeSlot retires an open connection at its scheduled close tick.
func (m *machine) closeSlot(si int32) {
	slot := &m.conns[si]
	if err := m.servers[slot.tenant].Disconnect(slot.id); err != nil {
		m.res.Errors++
	}
	m.res.Completed++
	if m.res.Lifetimes != nil {
		m.res.Lifetimes.Add(float64(m.now - slot.openedAt))
	}
	m.record("close", fpClose, int(slot.tenant), slot.serial)
	m.releaseSlot(si)
}

// teardown force-closes a slot after a failed churn, recording the
// divergence in the fingerprint (a healthy run never takes this path).
// The server still holds the connection, so it is disconnected first; a
// failed disconnect counts as an error, as in closeSlot.
func (m *machine) teardown(si int32) {
	slot := &m.conns[si]
	if err := m.servers[slot.tenant].Disconnect(slot.id); err != nil {
		m.res.Errors++
	}
	m.record("error", fpError, int(slot.tenant), slot.serial)
	m.releaseSlot(si)
}

// releaseSlot removes a slot from the open list (swap-remove, positions
// patched) and returns it to the free list under a new generation.
func (m *machine) releaseSlot(si int32) {
	slot := &m.conns[si]
	pos := slot.openPos
	last := int32(len(m.openSlots) - 1)
	if pos >= 0 && pos <= last {
		moved := m.openSlots[last]
		m.openSlots[pos] = moved
		m.conns[moved].openPos = pos
		m.openSlots = m.openSlots[:last]
	}
	slot.gen++
	slot.openPos = -1
	m.freeSlots = append(m.freeSlots, si)
}

// dispatch handles one due event.
func (m *machine) dispatch(ev event) {
	switch ev.kind {
	case evArrival:
		m.arrive()
	case evClose:
		if m.conns[ev.slot].gen == ev.gen {
			m.closeSlot(ev.slot)
		}
	case evChurn:
		if m.conns[ev.slot].gen != ev.gen {
			return
		}
		slot := &m.conns[ev.slot]
		if err := m.servers[slot.tenant].Churn(slot.id, m.cfg.TransferBytes); err != nil {
			m.res.Errors++
			m.teardown(ev.slot)
			return
		}
		m.res.Churns++
		m.scheduleChurn(ev.slot)
	}
}

// processDue drains every event scheduled for the current tick, in
// (tick, seq) order.
func (m *machine) processDue() {
	for {
		ev, ok := m.heap.peek()
		if !ok || ev.tick > m.now {
			return
		}
		if ev, ok = m.heap.pop(); ok {
			m.dispatch(ev)
		}
	}
}

// window folds one scan-window sample into the mergeable streams.
func (m *machine) window() {
	m.res.Windows++
	m.res.OpenGauge.Add(float64(len(m.openSlots)))
	if m.scanner != nil {
		sum := scan.Summarize(m.scanner.Scan())
		m.res.Copies.Add(float64(sum.Total))
		m.res.CopiesAlloc.Add(float64(sum.Allocated))
		m.res.CopiesUnalloc.Add(float64(sum.Unallocated))
		m.res.Exposure += float64(sum.Total) * float64(m.cfg.SampleEvery)
	}
}

// memSampleEvery is the MeasureMem heap-sampling cadence in ticks. Heap
// sampling is decoupled from the scan-window cadence because benchmark
// timelines run with scanning disabled (SampleEvery 0) — the memory
// evidence must not require paying for memory scans.
const memSampleEvery = 32

// sampleHeap records the live Go heap if it is a new peak (MeasureMem
// only). The samples never feed determinism, only Result.PeakHeapBytes.
func (m *machine) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.res.PeakHeapBytes {
		m.res.PeakHeapBytes = ms.HeapAlloc
	}
}

// endTick closes the current virtual tick: kernel housekeeping, pool
// maintenance and window sampling on their cadences. This is the whole
// per-tick cost of an idle machine — no per-connection work anywhere.
func (m *machine) endTick() {
	m.k.Tick()
	if m.cfg.MaintainEvery > 0 && m.now%m.cfg.MaintainEvery == m.cfg.MaintainEvery-1 {
		for _, srv := range m.servers {
			if err := srv.Maintain(); err != nil {
				m.res.Errors++
			}
		}
	}
	if m.cfg.SampleEvery > 0 && m.now%m.cfg.SampleEvery == m.cfg.SampleEvery-1 {
		m.window()
	}
	if m.cfg.MeasureMem && m.now%memSampleEvery == memSampleEvery-1 {
		m.sampleHeap()
	}
	m.now++
}

// run drives the machine to the horizon and shuts it down.
func (m *machine) run() (machineResult, error) {
	for m.now <= m.cfg.Horizon {
		m.processDue()
		m.endTick()
	}
	m.res.FinalOpen = len(m.openSlots)
	for _, si := range m.openSlots {
		slot := &m.conns[si]
		if err := m.servers[slot.tenant].Disconnect(slot.id); err != nil {
			m.res.Errors++
		}
	}
	m.openSlots = m.openSlots[:0]
	for _, srv := range m.servers {
		if err := srv.Stop(); err != nil {
			return m.res, fmt.Errorf("fleet: machine %d stop: %w", m.idx, err)
		}
	}
	m.k.Tick()
	return m.res, nil
}
