package main

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"sort"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fleet"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/scan"
	"memshield/internal/scrub"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// The replay drives one machine of a workload through the layers' public
// calls, on the bench's own event loop, so that every call can be timed
// from outside. It draws the same seeded Poisson-with-bursts arrivals,
// lifetimes and churn gaps as the fleet engine's machine 0 (the same
// DeriveSeed sub-streams and event order), which the traced run checks by
// comparing fingerprints with a one-machine fleet.Run.

// server is what the replay needs from a tenant server.
type server interface {
	Connect() (int, error)
	Churn(id, n int) error
	Disconnect(id int) error
	Maintain() error
	Stop() error
	PID() int
	StatsString() string
}

type sshServer struct{ *sshd.Server }

func (s sshServer) Churn(id, n int) error { return s.Transfer(id, n) }

// Maintain is empty: sshd has no worker pool to maintain.
func (s sshServer) Maintain() error     { return nil }
func (s sshServer) PID() int            { return s.MasterPID() }
func (s sshServer) StatsString() string { return fmt.Sprintf("%+v", s.Stats()) }

type httpServer struct{ *httpd.Server }

func (s httpServer) Churn(id, n int) error { return s.Request(id, n) }
func (s httpServer) Maintain() error       { return s.MaintainSpares() }
func (s httpServer) PID() int              { return s.ParentPID() }
func (s httpServer) StatsString() string   { return fmt.Sprintf("%+v", s.Stats()) }

// Span names. The server.* names are shared by sshd and httpd (Transfer
// and Request are both "transfer").
const (
	spBoot       = "replay.boot"
	spKernelNew  = "kernel.new"
	spKeygen     = "rsakey.generate"
	spScramble   = "kernel.scramble"
	spStart      = "server.start"
	spConnect    = "server.connect"
	spTransfer   = "server.transfer"
	spDisconnect = "server.disconnect"
	spMaintain   = "server.maintain"
	spTick       = "kernel.tick"
	spScan       = "scan.scan"
	spShutdown   = "replay.stop"
	spStop       = "server.stop"
	noReq        = int64(-1)
	noParent     = int32(-1)
)

// The fleet engine's replay contract: fingerprint event codes and the
// DeriveSeed sub-streams of a machine's seed.
const (
	fpArrival = int64(iota + 1)
	fpClose
	fpShed
	fpError
)

const (
	subArrival = int64(iota + 1)
	subConn
	subKeygen
	subServer
	subScramble
	subChurn
)

// replayMachine is the fleet machine index the replay reproduces.
const replayMachine = 0

const (
	evArrival = iota + 1
	evClose
	evChurn
)

type event struct {
	tick, seq uint64
	kind      int
	serial    int64
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].tick != q[j].tick {
		return q[i].tick < q[j].tick
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type conn struct {
	tenant     int
	id         int
	closeTick  uint64
	churnState int64 // the connection's own splitmix64 stream of churn gaps
}

// replayOutput is everything the replay simulated. It must not depend on
// whether the recorder was on.
type replayOutput struct {
	Fingerprint uint64
	Arrivals    int64
	Churns      int64
	Completed   int64
	FinalOpen   int
	Errors      int64
	Servers     []string
	Alloc       alloc.Stats
	Scans       []scan.Summary
}

// machine is the replay's single simulated host.
type machine struct {
	cfg  fleet.Config
	base int64
	rec  *recorder

	k       *kernel.Kernel
	servers []server
	scanner *scan.Scanner

	queue   eventQueue
	nextSeq uint64
	open    map[int64]*conn
	now     uint64
	serial  int64

	arrivalState, connState int64
	nextArrivalAt           float64
	inBurst                 bool
	phaseEnd                uint64

	out replayOutput
}

// replay runs machine 0 of cfg to its horizon; rec may be nil.
func replay(cfg fleet.Config, rec *recorder) (replayOutput, error) {
	m := &machine{cfg: cfg, rec: rec, open: map[int64]*conn{}}
	if err := m.boot(); err != nil {
		return replayOutput{}, err
	}
	for m.now <= cfg.Horizon {
		for len(m.queue) > 0 && m.queue[0].tick <= m.now {
			m.dispatch(heap.Pop(&m.queue).(event))
		}
		m.endTick()
	}
	if err := m.shutdown(); err != nil {
		return replayOutput{}, err
	}
	m.out.Alloc = m.k.Alloc().Stats()
	for _, s := range m.servers {
		m.out.Servers = append(m.out.Servers, s.StatsString())
	}
	return m.out, nil
}

func sameOutput(a, b replayOutput) bool { return reflect.DeepEqual(a, b) }

// snap reads the counters a span's delta is taken over.
func (m *machine) snap() counters {
	if m.k == nil { // booting
		return counters{GoBytes: goAllocBytes()}
	}
	a := m.k.Alloc().Stats()
	c := m.k.Cache().Stats()
	out := counters{
		Allocs: a.Allocs, Frees: a.Frees, PagesZeroed: a.PagesZeroed,
		CacheHits: c.Hits, CacheMisses: c.Misses, GoBytes: goAllocBytes(),
	}
	if m.scanner != nil {
		s := m.scanner.Stats()
		out.FramesScanned, out.FramesCached = s.FramesScanned, s.FramesCached
	}
	return out
}

// call runs fn inside a span of the given name, recording the counter
// delta over the call.
func (m *machine) call(name string, parent int32, req int64, fn func() error) error {
	if m.rec == nil {
		return fn()
	}
	before := m.snap()
	i := m.rec.open(name, parent, req)
	err := fn()
	m.rec.close(i)
	m.rec.count(name, m.snap().minus(before))
	return err
}

func tenantKeyPath(t int) string { return fmt.Sprintf("/etc/keys/tenant-%d.key", t) }

// boot brings the machine up the way the fleet engine does: kernel, one
// key per tenant installed as PEM, a scrambled free list, one server per
// tenant, then the first arrival.
func (m *machine) boot() error {
	cfg := m.cfg
	m.base = stats.DeriveSeed(cfg.Seed, replayMachine)
	m.arrivalState = stats.DeriveSeed(m.base, subArrival)
	m.connState = stats.DeriveSeed(m.base, subConn)
	root := m.rec.open(spBoot, noParent, noReq)
	defer m.rec.close(root)
	err := m.call(spKernelNew, root, noReq, func() error {
		var err error
		m.k, err = kernel.New(kernel.Config{
			MemPages: cfg.MemPages, SwapPages: cfg.SwapPages, DeallocPolicy: cfg.Level.KernelPolicy(),
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("replay boot: %w", err)
	}
	var patterns []scan.Pattern
	for t := 0; t < cfg.Tenants; t++ {
		var key *rsakey.PrivateKey
		err := m.call(spKeygen, root, noReq, func() error {
			var err error
			key, err = rsakey.Generate(stats.NewReader(stats.DeriveSeed(m.base, subKeygen, int64(t))), cfg.KeyBits)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay keygen: %w", err)
		}
		pem := key.MarshalPEM()
		err = m.k.FS().WriteFile(tenantKeyPath(t), pem)
		scrub.Bytes(pem)
		if err != nil {
			return fmt.Errorf("replay key install: %w", err)
		}
		patterns = append(patterns, scan.PatternsFor(key)...)
	}
	err = m.call(spScramble, root, noReq, func() error {
		return m.k.ScrambleFreeMemory(stats.DeriveSeed(m.base, subScramble))
	})
	if err != nil {
		return fmt.Errorf("replay scramble: %w", err)
	}
	for t := 0; t < cfg.Tenants; t++ {
		var srv server
		err := m.call(spStart, root, noReq, func() error {
			var err error
			srv, err = startServer(m.k, cfg, t, stats.DeriveSeed(m.base, subServer, int64(t)))
			return err
		})
		if err != nil {
			return fmt.Errorf("replay start tenant %d: %w", t, err)
		}
		m.servers = append(m.servers, srv)
	}
	if cfg.SampleEvery > 0 {
		m.scanner = scan.NewWith(m.k, patterns, scan.Options{Workers: 1})
	}
	m.scheduleArrival()
	return nil
}

// startServer starts tenant t with the fleet engine's server settings.
func startServer(k *kernel.Kernel, cfg fleet.Config, t int, seed int64) (server, error) {
	if cfg.Kind == fleet.KindHTTPD {
		s, err := httpd.Start(k, httpd.Config{
			KeyPath: tenantKeyPath(t), Level: cfg.Level, Seed: seed,
			MaxClients:   cfg.MaxOpen + 4,
			StartServers: 1, MinSpareServers: 1, MaxSpareServers: 2,
		})
		if err != nil {
			return nil, err
		}
		return httpServer{s}, nil
	}
	s, err := sshd.Start(k, sshd.Config{
		KeyPath: tenantKeyPath(t), Level: cfg.Level, Seed: seed,
		SessionBufferBytes: cfg.SessionBufferBytes,
	})
	if err != nil {
		return nil, err
	}
	return sshServer{s}, nil
}

// uniform advances a splitmix64 stream and returns a draw in [0, 1).
func uniform(state *int64) float64 {
	*state = stats.DeriveSeed(*state)
	return float64(uint64(*state)>>11) / (1 << 53)
}

func expDraw(state *int64, mean float64) float64 { return -math.Log(1-uniform(state)) * mean }

func (m *machine) push(tick uint64, kind int, serial int64) {
	heap.Push(&m.queue, event{tick: tick, seq: m.nextSeq, kind: kind, serial: serial})
	m.nextSeq++
}

func (m *machine) record(code int64, tenant int, serial int64) {
	m.out.Fingerprint = uint64(stats.DeriveSeed(int64(m.out.Fingerprint), int64(m.now), code, int64(tenant), serial))
}

// arrivalRate advances the burst on/off phases to tick and returns the
// rate in effect. The machine starts in a burst.
func (m *machine) arrivalRate(tick uint64) float64 {
	for tick >= m.phaseEnd {
		mean := m.cfg.BurstOffTicks
		if m.inBurst {
			m.inBurst = false
		} else {
			m.inBurst = true
			mean = m.cfg.BurstOnTicks
		}
		m.phaseEnd += 1 + uint64(expDraw(&m.arrivalState, mean))
	}
	if m.inBurst {
		return m.cfg.ArrivalRate * m.cfg.BurstFactor
	}
	return m.cfg.ArrivalRate
}

func (m *machine) scheduleArrival() {
	rate := m.arrivalRate(uint64(m.nextArrivalAt))
	if rate <= 0 {
		return
	}
	m.nextArrivalAt += expDraw(&m.arrivalState, 1/rate)
	tick := uint64(m.nextArrivalAt)
	if tick > m.cfg.Horizon {
		return
	}
	m.push(max(tick, m.now), evArrival, 0)
}

func (m *machine) scheduleChurn(serial int64, c *conn) {
	tick := m.now + 1 + uint64(expDraw(&c.churnState, m.cfg.ChurnGapTicks))
	if tick >= c.closeTick || tick > m.cfg.Horizon {
		return
	}
	m.push(tick, evChurn, serial)
}

func (m *machine) dispatch(ev event) {
	switch ev.kind {
	case evArrival:
		m.arrive()
	case evClose:
		if c := m.open[ev.serial]; c != nil {
			m.closeConn(ev.serial, c)
		}
	case evChurn:
		c := m.open[ev.serial]
		if c == nil {
			return
		}
		if err := m.transfer(ev.serial, c); err != nil {
			return
		}
		m.out.Churns++
		m.scheduleChurn(ev.serial, c)
	}
}

func (m *machine) arrive() {
	tenant := 0
	if n := m.cfg.Tenants; n > 1 {
		m.arrivalState = stats.DeriveSeed(m.arrivalState)
		tenant = int(uint64(m.arrivalState) % uint64(n))
	}
	life := 1 + uint64(expDraw(&m.connState, m.cfg.LifetimeTicks))
	serial := m.serial
	m.serial++
	m.out.Arrivals++
	if len(m.open) >= m.cfg.MaxOpen {
		m.record(fpShed, tenant, serial)
		m.scheduleArrival()
		return
	}
	c := &conn{tenant: tenant, closeTick: m.now + life}
	err := m.call(spConnect, noParent, serial, func() error {
		var err error
		c.id, err = m.servers[tenant].Connect()
		return err
	})
	if err != nil {
		m.out.Errors++
		m.record(fpError, tenant, serial)
		m.scheduleArrival()
		return
	}
	m.open[serial] = c
	m.record(fpArrival, tenant, serial)
	m.push(c.closeTick, evClose, serial)
	c.churnState = stats.DeriveSeed(m.base, subChurn, serial)
	m.scheduleChurn(serial, c)
	// The error path already tore the connection down.
	_ = m.transfer(serial, c)
	m.scheduleArrival()
}

// transfer moves one payload on a connection; a failure tears the
// connection down and is counted.
func (m *machine) transfer(serial int64, c *conn) error {
	err := m.call(spTransfer, noParent, serial, func() error {
		return m.servers[c.tenant].Churn(c.id, m.cfg.TransferBytes)
	})
	if err != nil {
		m.out.Errors++
		m.record(fpError, c.tenant, serial)
		delete(m.open, serial)
	}
	return err
}

func (m *machine) closeConn(serial int64, c *conn) {
	err := m.call(spDisconnect, noParent, serial, func() error {
		return m.servers[c.tenant].Disconnect(c.id)
	})
	if err != nil {
		m.out.Errors++
	}
	m.out.Completed++
	m.record(fpClose, c.tenant, serial)
	delete(m.open, serial)
}

func (m *machine) endTick() {
	_ = m.call(spTick, noParent, noReq, func() error { m.k.Tick(); return nil })
	if every := m.cfg.MaintainEvery; every > 0 && m.now%every == every-1 {
		for _, s := range m.servers {
			if err := m.call(spMaintain, noParent, noReq, s.Maintain); err != nil {
				m.out.Errors++
			}
		}
	}
	if every := m.cfg.SampleEvery; every > 0 && m.now%every == every-1 {
		var sum scan.Summary
		_ = m.call(spScan, noParent, noReq, func() error {
			sum = scan.Summarize(m.scanner.Scan())
			return nil
		})
		m.out.Scans = append(m.out.Scans, sum)
	}
	m.now++
}

// shutdown closes the connections still open at the horizon (in serial
// order) and stops every server.
func (m *machine) shutdown() error {
	root := m.rec.open(spShutdown, noParent, noReq)
	defer m.rec.close(root)
	m.out.FinalOpen = len(m.open)
	serials := make([]int64, 0, len(m.open))
	for s := range m.open {
		serials = append(serials, s)
	}
	sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
	for _, s := range serials {
		c := m.open[s]
		err := m.call(spDisconnect, root, s, func() error { return m.servers[c.tenant].Disconnect(c.id) })
		if err != nil {
			m.out.Errors++
		}
	}
	for t, s := range m.servers {
		if err := m.call(spStop, root, noReq, s.Stop); err != nil {
			return fmt.Errorf("replay stop tenant %d: %w", t, err)
		}
	}
	m.k.Tick()
	return nil
}
