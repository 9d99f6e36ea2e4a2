// Package fleet is the production-scale traffic engine: N simulated
// machines — each running tenant sshd/httpd servers at a protection level
// — driven through seeded Poisson+burst connection churn to a virtual-tick
// horizon, sharded across goroutines under the ordered-commit determinism
// contract of internal/runner (DESIGN.md §7, §12).
//
// Three properties distinguish it from the per-tick driver in internal/sim
// it scales past:
//
//   - Event-driven time: each machine advances through a min-heap of
//     scheduled events (arrivals, per-connection transfers, retirements).
//     A tick with no due events costs one heap peek and one kernel tick,
//     so idle connections cost nothing.
//   - O(machines + open connections) memory: results are mergeable
//     streams, bounded reservoirs and a rolling fingerprint
//     (internal/stats), folded per scan window — never a per-connection
//     or per-tick sample append. A 1M-connection timeline holds the same
//     state as a 10k one.
//   - Shard/worker invariance: machines are fully independent cells;
//     shards are contiguous machine ranges run as runner.Map cells, and
//     per-machine results merge in machine order. Any Shards × Workers
//     combination yields byte-identical fingerprints, logs and stats.
package fleet

import (
	"errors"
	"math"

	"memshield/internal/host"
	"memshield/internal/protect"
	"memshield/internal/runner"
	"memshield/internal/stats"
)

// Kind selects the tenant server type.
type Kind = host.Kind

// Kinds.
const (
	KindSSHD  = host.KindSSHD
	KindHTTPD = host.KindHTTPD
)

// Config describes one fleet run.
type Config struct {
	// Machines is the fleet size (default 4). Each machine is its own
	// kernel, tenant servers and RNG streams — the unit of sharding.
	Machines int
	// Tenants is the number of distinct keys/servers per machine
	// (default 4): tenant t serves with its own RSA key at KeyPath
	// /etc/keys/tenant-t.key.
	Tenants int
	// Kind selects the tenant server (default sshd).
	Kind Kind
	// Level is the protection level every tenant deploys.
	Level protect.Level
	// Seed drives the whole fleet; machine m derives its private streams
	// from DeriveSeed(Seed, m).
	Seed int64
	// Horizon is the last virtual tick (default 1000).
	Horizon uint64
	// ArrivalRate is the base Poisson arrival rate per machine per tick
	// (default 0.5); BurstFactor multiplies it during burst phases.
	ArrivalRate float64
	// BurstFactor scales arrivals during bursts (default 4; 1 disables).
	BurstFactor float64
	// BurstOnTicks / BurstOffTicks are the mean burst/quiet phase lengths
	// (default 30 / 120).
	BurstOnTicks  float64
	BurstOffTicks float64
	// LifetimeTicks is the mean open duration of a connection (default 50).
	LifetimeTicks float64
	// ChurnGapTicks is the mean gap between transfers on an open
	// connection (default 16).
	ChurnGapTicks float64
	// TransferBytes is the payload per transfer (default 4096).
	TransferBytes int
	// MaxOpen caps open connections per machine (default sized to the
	// burst-peak population); arrivals beyond it are shed, deterministically.
	MaxOpen int
	// MemPages / SwapPages size each machine (defaults scale with MaxOpen).
	MemPages  int
	SwapPages int
	// KeyBits sizes tenant keys (default 512).
	KeyBits int
	// SessionBufferBytes is the per-connection session state (default
	// 4096 — one page, so fleet memory stays proportional to open
	// connections).
	SessionBufferBytes int
	// SampleEvery is the scan-window cadence in ticks; every window scans
	// each machine's memory for all tenant keys and folds the copy counts
	// into the mergeable streams. 0 (the default) disables scanning.
	SampleEvery uint64
	// MaintainEvery is the server pool-maintenance cadence (default 16).
	MaintainEvery uint64
	// LifetimeSample is the per-machine reservoir capacity for completed
	// connection lifetimes (default 512; 0 disables).
	LifetimeSample int
	// Shards is the number of runner cells the machines are partitioned
	// into, contiguously (0 = one shard per machine). Purely a scheduling
	// knob: results are byte-identical at any value.
	Shards int
	// Workers caps the goroutines driving shards (0 = one per CPU).
	// Results are byte-identical at any value.
	Workers int
	// KeepLogs retains the full population event log per machine (small
	// runs and goldens only — it is the one O(connections) allocation).
	KeepLogs bool
	// MeasureMem samples the Go heap every memSampleEvery ticks and
	// reports the peak (EXPERIMENTS.md's O(machines + open) evidence).
	// Off by default: the ReadMemStats pauses are wall-clock noise,
	// though never determinism.
	MeasureMem bool
}

func (c *Config) applyDefaults() {
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.Kind == "" {
		c.Kind = KindSSHD
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelNone
	}
	if c.Horizon == 0 {
		c.Horizon = 1000
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 0.5
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 4
	}
	if c.BurstOnTicks == 0 {
		c.BurstOnTicks = 30
	}
	if c.BurstOffTicks == 0 {
		c.BurstOffTicks = 120
	}
	if c.LifetimeTicks == 0 {
		c.LifetimeTicks = 50
	}
	if c.ChurnGapTicks == 0 {
		c.ChurnGapTicks = 16
	}
	if c.TransferBytes == 0 {
		c.TransferBytes = 4096
	}
	if c.MaxOpen == 0 {
		// Burst-peak population plus headroom: the open count is an
		// M/M/∞ queue whose mean is rate × lifetime; bursts multiply the
		// rate, and the cap sheds (deterministically) past the headroom.
		peak := c.ArrivalRate * c.BurstFactor * c.LifetimeTicks
		c.MaxOpen = int(math.Ceil(peak*1.25)) + 16
	}
	if c.MemPages == 0 {
		// An open sshd connection pins ~16 pages (one session-buffer page
		// plus child process state, measured); 24 per slot leaves room
		// for tenant masters and page cache, so healthy runs never hit
		// allocation failures even at the shed cap.
		c.MemPages = 24 * c.MaxOpen
		if c.MemPages < 2048 {
			c.MemPages = 2048
		}
	}
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if c.SessionBufferBytes == 0 {
		c.SessionBufferBytes = 4096
	}
	if c.MaintainEvery == 0 {
		c.MaintainEvery = 16
	}
	if c.LifetimeSample == 0 {
		c.LifetimeSample = 512
	}
	if c.Shards <= 0 || c.Shards > c.Machines {
		c.Shards = c.Machines
	}
}

// Sized returns a Config targeting roughly total connection arrivals
// across machines over horizon ticks, burst duty cycle included. The
// actual count is the seeded Poisson draw around that target.
func Sized(total int64, machines int, horizon uint64, level protect.Level, seed int64) Config {
	cfg := Config{
		Machines: machines, Level: level, Seed: seed, Horizon: horizon,
		ArrivalRate: 1, // placeholder; recomputed below from the duty cycle
	}
	cfg.applyDefaults()
	duty := (cfg.BurstOffTicks + cfg.BurstFactor*cfg.BurstOnTicks) /
		(cfg.BurstOnTicks + cfg.BurstOffTicks)
	cfg.ArrivalRate = float64(total) / (float64(machines) * float64(horizon) * duty)
	// Re-derive the population-dependent defaults from the real rate.
	cfg.MaxOpen, cfg.MemPages = 0, 0
	cfg.applyDefaults()
	return cfg
}

// Result is one fleet run's mergeable outcome. Memory is
// O(machines + open connections): counters, five Welford streams, one
// bounded reservoir and a fingerprint — regardless of how many
// connections the timeline carried.
type Result struct {
	Config Config
	// Arrivals / Completed / Shed / Errors count the population events;
	// Churns counts scheduled transfers after each connection's first.
	Arrivals  int64
	Completed int64
	Shed      int64
	Churns    int64
	Errors    int64
	// PeakOpen sums the per-machine open-connection peaks (an upper bound
	// on the fleet-wide instantaneous peak); FinalOpen is the population
	// still open at the horizon.
	PeakOpen  int
	FinalOpen int
	// Windows counts scan windows folded in (per machine).
	Windows int64
	// Copies* are per-window scanner copy counts across all tenant keys;
	// OpenGauge is the per-window open-connection gauge; Exposure is the
	// copies × ticks integral (the exposure-window metric).
	Copies        stats.Stream
	CopiesAlloc   stats.Stream
	CopiesUnalloc stats.Stream
	OpenGauge     stats.Stream
	Exposure      float64
	// Lifetimes is a deterministic reservoir over completed connection
	// lifetimes (merged in machine order).
	Lifetimes *stats.Reservoir
	// Fingerprint chains every machine's population-event fingerprint in
	// machine order; byte-identical at any Shards × Workers combination.
	Fingerprint uint64
	// Log is the concatenated per-machine event log (KeepLogs only).
	Log []EventRecord
	// PeakHeapBytes is the largest Go heap sample seen (MeasureMem only).
	PeakHeapBytes uint64
}

// shardRange returns machine range [lo, hi) of shard s when n machines
// are split into shards contiguous groups.
func shardRange(n, shards, s int) (int, int) {
	per, extra := n/shards, n%shards
	lo := s*per + min(s, extra)
	hi := lo + per
	if s < extra {
		hi++
	}
	return lo, hi
}

// Run executes the fleet timeline.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if cfg.ArrivalRate < 0 {
		return nil, errors.New("fleet: negative arrival rate")
	}
	// Shards are contiguous machine ranges; each is one runner cell whose
	// machines run sequentially on its worker. Ordered commit plus
	// machine-order merge makes every (Shards, Workers) pair equivalent.
	shardResults, err := runner.Map(cfg.Workers, cfg.Shards, func(s int) ([]machineResult, error) {
		lo, hi := shardRange(cfg.Machines, cfg.Shards, s)
		out := make([]machineResult, 0, hi-lo)
		for i := lo; i < hi; i++ {
			m, err := newMachine(cfg, i)
			if err != nil {
				return nil, err
			}
			r, err := m.run()
			// The next machine of this shard, or of another, boots on
			// this one's memory instead of clearing a fresh array.
			m.k.Mem().Release()
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	if cfg.LifetimeSample > 0 {
		res.Lifetimes = stats.NewReservoir(cfg.LifetimeSample, stats.DeriveSeed(cfg.Seed, 8))
	}
	for _, shard := range shardResults {
		for i := range shard {
			res.merge(&shard[i])
		}
	}
	return res, nil
}

// merge folds one machine's result in, in machine order.
func (r *Result) merge(m *machineResult) {
	r.Arrivals += m.Arrivals
	r.Completed += m.Completed
	r.Shed += m.Shed
	r.Churns += m.Churns
	r.Errors += m.Errors
	r.PeakOpen += m.PeakOpen
	r.FinalOpen += m.FinalOpen
	r.Windows += m.Windows
	r.Copies.Merge(m.Copies)
	r.CopiesAlloc.Merge(m.CopiesAlloc)
	r.CopiesUnalloc.Merge(m.CopiesUnalloc)
	r.OpenGauge.Merge(m.OpenGauge)
	r.Exposure += m.Exposure
	if r.Lifetimes != nil {
		r.Lifetimes.Merge(m.Lifetimes)
	}
	r.Fingerprint = chainMachine(r.Fingerprint, m.Fingerprint)
	r.Log = append(r.Log, m.Log...)
	if m.PeakHeapBytes > r.PeakHeapBytes {
		r.PeakHeapBytes = m.PeakHeapBytes
	}
}

// chainMachine folds one machine fingerprint into the fleet chain. The
// fleet fingerprint is this fold applied over machine fingerprints in
// machine order, starting from zero.
func chainMachine(fleet, machine uint64) uint64 {
	return uint64(stats.DeriveSeed(int64(fleet), int64(machine)))
}
