package fleet

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/stats"
)

// testConfig is a small, fast fleet: ~2k connections over 400 ticks on 4
// machines, with scan windows on.
func testConfig() Config {
	cfg := Sized(2000, 4, 400, protect.LevelNone, 2007)
	cfg.SampleEvery = 40
	return cfg
}

// resultKey condenses everything replay-sensitive about a Result for
// equality checks across shard/worker counts.
type resultKey struct {
	Arrivals, Completed, Shed, Errors int64
	PeakOpen, FinalOpen               int
	Windows                           int64
	Fingerprint                       uint64
	CopiesCount                       int64
	CopiesMean                        float64
	OpenMean                          float64
	Exposure                          float64
	LifeSeen                          int64
	LifeP50                           float64
}

func keyOf(r *Result) resultKey {
	return resultKey{
		Arrivals: r.Arrivals, Completed: r.Completed, Shed: r.Shed, Errors: r.Errors,
		PeakOpen: r.PeakOpen, FinalOpen: r.FinalOpen, Windows: r.Windows,
		Fingerprint: r.Fingerprint,
		CopiesCount: r.Copies.Count(), CopiesMean: r.Copies.Mean(),
		OpenMean: r.OpenGauge.Mean(), Exposure: r.Exposure,
		LifeSeen: r.Lifetimes.Seen(), LifeP50: r.Lifetimes.Quantile(0.5),
	}
}

// TestShardWorkerInvariance is the determinism contract: every
// Shards × Workers combination — including one shard on one worker, the
// sequential reference — produces byte-identical fingerprints, logs and
// stats.
func TestShardWorkerInvariance(t *testing.T) {
	grid := []struct{ shards, workers int }{
		{1, 1}, {4, 1}, {1, 4}, {4, 4}, {2, 4}, {runtime.NumCPU(), 4},
	}
	var ref *Result
	for _, g := range grid {
		cfg := testConfig()
		cfg.KeepLogs = true
		cfg.Shards = g.shards
		cfg.Workers = g.workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", g.shards, g.workers, err)
		}
		if ref == nil {
			ref = res
			if res.Arrivals == 0 || res.Completed == 0 {
				t.Fatalf("degenerate run: %+v", keyOf(res))
			}
			continue
		}
		if keyOf(res) != keyOf(ref) {
			t.Errorf("shards=%d workers=%d diverged:\n got %+v\nwant %+v",
				g.shards, g.workers, keyOf(res), keyOf(ref))
		}
		if !reflect.DeepEqual(res.Log, ref.Log) {
			t.Errorf("shards=%d workers=%d: event log diverged", g.shards, g.workers)
		}
	}
}

// TestSeedReplayGolden10k pins one 10k-connection fleet timeline: the
// fingerprint and population counts below were produced by this config at
// seed 2007 and must never change silently — they are the seed-replay
// golden for the fleet engine, like the fig5/fig15 goldens for the
// single-machine timelines.
func TestSeedReplayGolden10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-connection timeline in -short mode")
	}
	cfg := Sized(10_000, 4, 1000, protect.LevelNone, 2007)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantFingerprint = uint64(0x52f453f82365576d)
		wantArrivals    = int64(10122)
		wantCompleted   = int64(9762)
		// The fingerprint chains only arrivals, closes, sheds and errors;
		// the churn count pins the per-connection transfer stream.
		wantChurns = int64(29148)
	)
	if res.Fingerprint != wantFingerprint {
		t.Errorf("fingerprint = %x, want %x", res.Fingerprint, wantFingerprint)
	}
	if res.Churns != wantChurns {
		t.Errorf("churns = %d, want %d", res.Churns, wantChurns)
	}
	if res.Arrivals != wantArrivals || res.Completed != wantCompleted {
		t.Errorf("population = %d arrived / %d completed, want %d / %d",
			res.Arrivals, res.Completed, wantArrivals, wantCompleted)
	}
	if res.Shed != 0 || res.Errors != 0 {
		t.Errorf("golden run shed %d / errored %d, want clean", res.Shed, res.Errors)
	}
}

// churnFails is a tenant server whose every transfer fails. It tracks
// the connections it holds, so a test can see what the fleet leaves open.
type churnFails struct {
	next           int
	open           map[int]bool
	disconnects    int
	failDisconnect bool
}

func (f *churnFails) Connect() (int, error) {
	f.next++
	f.open[f.next] = true
	return f.next, nil
}

func (f *churnFails) Churn(id, n int) error { return errors.New("transfer refused") }

func (f *churnFails) Disconnect(id int) error {
	f.disconnects++
	delete(f.open, id)
	if f.failDisconnect {
		return errors.New("teardown refused")
	}
	return nil
}

func (f *churnFails) Maintain() error { return nil }
func (f *churnFails) Stop() error     { return nil }
func (f *churnFails) PID() int        { return 0 }
func (f *churnFails) Running() bool   { return true }

var _ host.Server = (*churnFails)(nil)

// TestFailedChurnDisconnects: a connection whose first transfer fails is
// torn down on the server too, not only in the fleet's slot table, and a
// failed disconnect during that teardown counts as a second error.
func TestFailedChurnDisconnects(t *testing.T) {
	for _, failDisconnect := range []bool{false, true} {
		cfg := Sized(200, 1, 100, protect.LevelNone, 2007)
		cfg.Tenants = 1
		m, err := newMachine(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		orig := m.servers[0]
		fake := &churnFails{open: map[int]bool{}, failDisconnect: failDisconnect}
		m.servers[0] = fake
		res, err := m.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := orig.Stop(); err != nil {
			t.Fatal(err)
		}
		if fake.next == 0 {
			t.Fatal("no arrival reached the tenant")
		}
		if len(fake.open) != 0 || fake.disconnects != fake.next {
			t.Errorf("failDisconnect=%v: %d connections, %d disconnects, %d left open on the server",
				failDisconnect, fake.next, fake.disconnects, len(fake.open))
		}
		want := int64(fake.next)
		if failDisconnect {
			want *= 2
		}
		if res.Errors != want {
			t.Errorf("failDisconnect=%v: errors = %d, want %d", failDisconnect, res.Errors, want)
		}
	}
}

// TestReleasedMemoryCarriesNoKeys: a machine booted on the memory its
// predecessor released holds none of the predecessor's key bytes. The
// predecessor runs unprotected, so its frees leave key copies in
// unallocated frames; the goldens cannot see such a leak, because each
// machine scans only for its own tenants' keys.
func TestReleasedMemoryCarriesNoKeys(t *testing.T) {
	cfg := Sized(200, 1, 100, protect.LevelNone, 2007)
	cfg.Tenants, cfg.SampleEvery = 2, 10
	first, err := newMachine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := first.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CopiesUnalloc.StreamMax() == 0 {
		t.Fatal("no window counted a key copy in unallocated memory")
	}
	var patterns []scan.Pattern
	for tenant := range cfg.Tenants {
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(first.base, 3, int64(tenant))), cfg.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, scan.PatternsFor(key)...)
	}
	if got := scan.Summarize(scan.NewWith(first.k, patterns, scan.Options{Workers: 1}).Scan()); got.Unallocated == 0 {
		t.Fatalf("the first machine's keys are not in its unallocated memory: %+v", got)
	}
	frame0 := first.k.Mem().Frame(0)
	first.k.Mem().Release()
	next, err := newMachine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if next.k.Mem().Frame(0) != frame0 {
		t.Fatal("the next machine of the same size did not boot on the released memory")
	}
	if got := scan.Summarize(scan.NewWith(next.k, patterns, scan.Options{Workers: 1}).Scan()); got.Total != 0 {
		t.Fatalf("the next machine boots with %d of the first machine's key copies: %+v", got.Total, got)
	}
}

// TestRunReusesMachineMemory: Run releases each machine's memory once the
// machine has run, so a second run of the same fleet boots every machine
// on released memory and allocates less than one machine's RAM in all.
func TestRunReusesMachineMemory(t *testing.T) {
	cfg := Sized(400, 4, 100, protect.LevelIntegrated, 2007)
	cfg.Workers = 1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, ram := after.TotalAlloc-before.TotalAlloc, uint64(cfg.MemPages)*mem.PageSize; got >= ram {
		t.Fatalf("a rerun of %d machines allocated %d bytes, not below one machine's %d", cfg.Machines, got, ram)
	}
}

// TestFingerprintMatchesKeptLog: the rolling fingerprint is exactly the
// chain over the kept event log — grouping records by machine, chaining
// each machine, then chaining the machine fingerprints in order.
func TestFingerprintMatchesKeptLog(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 120
	cfg.KeepLogs = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) == 0 {
		t.Fatal("KeepLogs run returned no log")
	}
	perMachine := make([][]EventRecord, cfg.Machines)
	for _, e := range res.Log {
		perMachine[e.Machine] = append(perMachine[e.Machine], e)
	}
	var fp uint64
	for _, log := range perMachine {
		fp = chainMachine(fp, FingerprintOf(log))
	}
	if fp != res.Fingerprint {
		t.Fatalf("recomputed fingerprint %x != reported %x", fp, res.Fingerprint)
	}
}

// TestSizedHitsTarget: Sized configs land the seeded Poisson arrival
// count within a few percent of the requested total.
func TestSizedHitsTarget(t *testing.T) {
	cfg := Sized(2000, 4, 400, protect.LevelNone, 2007)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(2000*85/100), int64(2000*115/100)
	if res.Arrivals < lo || res.Arrivals > hi {
		t.Errorf("arrivals = %d, want within 15%% of 2000", res.Arrivals)
	}
}

// TestShedsAtCapDeterministically: past MaxOpen arrivals shed instead of
// failing, and the shed pattern replays exactly.
func TestShedsAtCapDeterministically(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = 150
	cfg.MaxOpen = 4
	cfg.MemPages = 2048
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Shed == 0 {
		t.Fatal("cap of 4 never shed")
	}
	if a.Errors != 0 {
		t.Fatalf("shedding run hit %d errors", a.Errors)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.Shed != b.Shed {
		t.Fatalf("shed replay diverged: %x/%d vs %x/%d",
			a.Fingerprint, a.Shed, b.Fingerprint, b.Shed)
	}
}

// TestAllLevelsAndKinds: every protection level and both server kinds
// complete a small fleet cleanly.
func TestAllLevelsAndKinds(t *testing.T) {
	for _, level := range protect.All() {
		cfg := Sized(300, 2, 150, level, 11)
		cfg.SampleEvery = 30
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d errors in a healthy run", level, res.Errors)
		}
		if res.Windows == 0 || res.Copies.Count() == 0 {
			t.Errorf("%s: no scan windows folded", level)
		}
	}
	cfg := Sized(300, 2, 150, protect.LevelIntegrated, 12)
	cfg.Kind = KindHTTPD
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("httpd: %v", err)
	}
	if res.Errors != 0 {
		t.Errorf("httpd: %d errors", res.Errors)
	}
}

// TestProtectionReducesCopies: the fleet-scale experiment reproduces the
// paper's core result — scanner-visible key copies collapse from the
// unprotected level to the integrated one.
func TestProtectionReducesCopies(t *testing.T) {
	run := func(level protect.Level) float64 {
		cfg := Sized(400, 2, 200, level, 2007)
		cfg.SampleEvery = 25
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", level, err)
		}
		return res.Copies.Mean()
	}
	none := run(protect.LevelNone)
	integrated := run(protect.LevelIntegrated)
	if none < 10 {
		t.Fatalf("unprotected fleet shows %.1f mean copies, expected plenty", none)
	}
	if integrated*5 > none {
		t.Errorf("integrated (%.1f) is not well below unprotected (%.1f)", integrated, none)
	}
}

// TestHeapOrdersByTickThenSeq covers the scheduler directly: pops come
// out tick-ordered, schedule-ordered within a tick, and the empty heap
// reports rather than panics.
func TestHeapOrdersByTickThenSeq(t *testing.T) {
	var h eventHeap
	if _, ok := h.pop(); ok {
		t.Fatal("empty heap popped something")
	}
	if _, ok := h.peek(); ok {
		t.Fatal("empty heap peeked something")
	}
	ticks := []uint64{9, 3, 7, 3, 1, 9, 3}
	for i, tick := range ticks {
		h.push(event{tick: tick, slot: int32(i)})
	}
	var gotTicks []uint64
	var orderWithin3 []int32
	for h.size() > 0 {
		e, ok := h.pop()
		if !ok {
			t.Fatal("pop failed with events pending")
		}
		gotTicks = append(gotTicks, e.tick)
		if e.tick == 3 {
			orderWithin3 = append(orderWithin3, e.slot)
		}
	}
	want := []uint64{1, 3, 3, 3, 7, 9, 9}
	if !reflect.DeepEqual(gotTicks, want) {
		t.Fatalf("pop order %v, want %v", gotTicks, want)
	}
	// Slots 1, 3, 6 were scheduled at tick 3 in that order.
	if !reflect.DeepEqual(orderWithin3, []int32{1, 3, 6}) {
		t.Fatalf("same-tick order %v, want schedule order [1 3 6]", orderWithin3)
	}
}

// TestShardRangePartition: every machine lands in exactly one shard.
func TestShardRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{7, 3}, {4, 4}, {10, 1}, {5, 4}} {
		covered := make([]bool, tc.n)
		for s := 0; s < tc.shards; s++ {
			lo, hi := shardRange(tc.n, tc.shards, s)
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d shards=%d: machine %d in two shards", tc.n, tc.shards, i)
				}
				covered[i] = true
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d shards=%d: machine %d unassigned", tc.n, tc.shards, i)
			}
		}
	}
}
