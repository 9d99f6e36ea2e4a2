// Package sim reimplements the paper's timeline experiment driver (the
// runsimulation.pl script of Appendix 8.2): a 29-tick schedule that starts
// a server, ramps client traffic 0 → 8 → 16 → 8 → 0 concurrent transfers,
// stops the server, and snapshots the machine with the memory scanner after
// every tick. The resulting per-tick match lists are exactly the data
// behind Figures 5/6 (unprotected) and 9–16 / 21–28 (each protection
// level) — the "locations of keys in memory versus time" scatter and the
// allocated/unallocated copy-count bars.
package sim

import (
	"errors"
	"fmt"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/scrub"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

// ServerKind selects which case study to run.
type ServerKind int

// Server kinds.
const (
	KindSSH ServerKind = iota + 1
	KindApache
)

func (k ServerKind) String() string {
	switch k {
	case KindSSH:
		return "openssh"
	case KindApache:
		return "apache"
	default:
		return fmt.Sprintf("ServerKind(%d)", int(k))
	}
}

// KeyPath is where the simulated host/TLS key lives.
const KeyPath = "/etc/ssl/private/server.key"

// Schedule holds the event ticks (defaults match the paper; unit = 2 min).
type Schedule struct {
	StartServer int // server starts (t=2)
	TrafficLow  int // first client: 8 concurrent transfers (t=6)
	TrafficHigh int // second client joins: 16 total (t=10)
	TrafficMid  int // first client stops: back to 8 (t=14)
	TrafficOff  int // all traffic stops (t=18)
	StopServer  int // server stops (t=22)
	End         int // simulation ends (t=29)
}

// DefaultSchedule returns the paper's timeline.
func DefaultSchedule() Schedule {
	return Schedule{
		StartServer: 2, TrafficLow: 6, TrafficHigh: 10,
		TrafficMid: 14, TrafficOff: 18, StopServer: 22, End: 29,
	}
}

// targetConns returns the concurrent-transfer target at a tick.
func (s Schedule) targetConns(tick, low, high int) int {
	switch {
	case tick < s.TrafficLow:
		return 0
	case tick < s.TrafficHigh:
		return low
	case tick < s.TrafficMid:
		return high
	case tick < s.TrafficOff:
		return low
	default:
		return 0
	}
}

// Config describes one timeline run.
type Config struct {
	Kind  ServerKind
	Level protect.Level
	// MemPages is the machine size (default 8192 = 32 MiB).
	MemPages int
	// KeyBits is the RSA modulus size (default 512 for speed; the paper
	// used 1024).
	KeyBits int
	// Seed drives key generation, free-list scrambling and payloads.
	Seed int64
	// Schedule defaults to the paper's.
	Schedule Schedule
	// LowConns/HighConns are the two traffic plateaus (8 / 16).
	LowConns  int
	HighConns int
	// ChurnRounds is how many times per tick each connection slot is
	// recycled (each scp/wget transfer lasts ~4 s against a 2-minute
	// tick, so slots recycle constantly; default 2).
	ChurnRounds int
	// TransferBytes per transfer (default 102 KiB, the paper's average
	// benchmark file size).
	TransferBytes int
	// FaultPlan, when set, arms deterministic fault injection across the
	// machine's syscall surface for this run (see internal/fault). Nil —
	// the default — leaves every golden timeline byte-identical.
	FaultPlan *fault.Plan
	// ScanWorkers is the shard fan-out for the per-tick memory scan
	// (0 = one per CPU). Any value yields byte-identical samples.
	ScanWorkers int
	// Recovery, when set, runs the server under a supervisor with this
	// retry policy (internal/supervise): transient workload failures are
	// retried with seeded backoff, a destroyed sealed key re-provisions
	// from an escrow anchor, and per-tick errors no longer abort the
	// timeline — the sample stream records the outage instead. Nil — the
	// default — keeps the raw fail-closed servers and every golden
	// timeline byte-identical.
	Recovery *supervise.Policy
}

func (c *Config) applyDefaults() {
	if c.MemPages == 0 {
		c.MemPages = 8192
	}
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if c.Schedule == (Schedule{}) {
		c.Schedule = DefaultSchedule()
	}
	if c.LowConns == 0 {
		c.LowConns = 8
	}
	if c.HighConns == 0 {
		c.HighConns = 16
	}
	if c.ChurnRounds == 0 {
		c.ChurnRounds = 2
	}
	if c.TransferBytes == 0 {
		c.TransferBytes = 102 * 1024
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelNone
	}
}

// TickSample is one scanner snapshot.
type TickSample struct {
	Tick          int
	Matches       []scan.Match
	Summary       scan.Summary
	ServerRunning bool
	Conns         int
}

// Result is a full timeline run.
type Result struct {
	Config   Config
	Key      *rsakey.PrivateKey
	MemPages int
	Samples  []TickSample
	// RecoveryCounters is the supervisor's final accounting when the run
	// was supervised (Config.Recovery non-nil); zero otherwise.
	RecoveryCounters supervise.Counters
	// Generations counts server boots under supervision (1 = no restart).
	Generations int
}

// Run executes the timeline and returns the per-tick scanner samples.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if cfg.Kind != KindSSH && cfg.Kind != KindApache {
		return nil, errors.New("sim: unknown server kind")
	}
	// Sub-streams of cfg.Seed: 1=keygen, 2=scramble, 3=server. Derived,
	// not offset, so a caller sweeping adjacent seeds never aliases them.
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(cfg.Seed, 1)), cfg.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	k, err := host.Boot(kernel.Config{
		MemPages:      cfg.MemPages,
		DeallocPolicy: cfg.Level.KernelPolicy(),
		FaultPlan:     cfg.FaultPlan,
	}, stats.DeriveSeed(cfg.Seed, 2), host.Key{Path: KeyPath, Key: key})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Paper, Section 3.2 observation (1): on the unpatched machine the
	// PEM file is already in the page cache at t=0 — the filesystem
	// touched it before the experiment (the Reiser FS effect). The
	// protected experiments deliberately avoided that pre-caching.
	// ReadFile returns a fresh native copy of the key file; only the
	// cache fill is wanted, so the copy is scrubbed at once.
	if cfg.Level == protect.LevelNone {
		pem, err := k.ReadFile(KeyPath, 0)
		scrub.Bytes(pem)
		if err != nil {
			return nil, fmt.Errorf("sim: pre-cache: %w", err)
		}
	}
	// One scanner reused across all ticks: the incremental per-frame cache
	// makes each sample cost O(pages dirtied since the last tick), not
	// O(memory) (DESIGN.md §9).
	sc := scan.NewWith(k, scan.PatternsFor(key), scan.Options{Workers: cfg.ScanWorkers})
	// The tick count is known up front: preallocate the sample slice so the
	// driver loop never regrows it (fleet runs avoid the append entirely —
	// internal/fleet aggregates into mergeable streams instead).
	res := &Result{Config: cfg, Key: key, MemPages: cfg.MemPages,
		Samples: make([]TickSample, 0, cfg.Schedule.End+1)}

	var srv host.Server
	var sup *supervise.Supervisor
	var open []int
	gen := 0
	for tick := 0; tick <= cfg.Schedule.End; tick++ {
		// Server lifecycle events.
		if tick == cfg.Schedule.StartServer {
			if cfg.Recovery != nil {
				sup, err = startSupervised(k, cfg, key)
				if err != nil {
					return nil, err
				}
				srv, gen = sup, sup.Generation()
			} else {
				srv, err = startServer(k, cfg)
				if err != nil {
					return nil, err
				}
			}
		}
		if tick == cfg.Schedule.StopServer && srv != nil {
			if err := srv.Stop(); err != nil && sup == nil {
				return nil, fmt.Errorf("sim: stop: %w", err)
			}
			if sup != nil {
				res.RecoveryCounters, res.Generations = sup.Counters(), sup.Generation()
			}
			srv, sup = nil, nil
			open = nil
		}
		// Traffic churn towards the tick's target. Each round models one
		// generation of short transfers: new connections arrive (and move
		// their payload) while the previous generation is still draining,
		// then the old generation closes — so every tick ends with a batch
		// of freshly freed per-connection pages, the way a real server's
		// teardown continuously feeds key copies into unallocated memory.
		if srv != nil {
			// Under supervision a re-provision restarts the server: stale
			// connection IDs belong to the dead generation, and a dead
			// supervisor (re-provision budget spent) ends service early —
			// both are outages the samples record, not driver errors.
			if sup != nil {
				if g := sup.Generation(); g != gen {
					gen, open = g, nil
				}
				if sup.Failed() != nil || !sup.Running() {
					res.RecoveryCounters, res.Generations = sup.Counters(), sup.Generation()
					srv, sup, open = nil, nil, nil
				}
			}
		}
		if srv != nil {
			target := cfg.Schedule.targetConns(tick, cfg.LowConns, cfg.HighConns)
			for round := 0; round < cfg.ChurnRounds; round++ {
				fresh := make([]int, 0, target)
				for i := 0; i < target; i++ {
					id, err := srv.Connect()
					if err != nil {
						if sup != nil {
							continue // slot lost to the outage; samples show the dip
						}
						return nil, fmt.Errorf("sim: tick %d connect: %w", tick, err)
					}
					fresh = append(fresh, id)
					if err := srv.Churn(id, cfg.TransferBytes); err != nil && sup == nil {
						return nil, fmt.Errorf("sim: tick %d churn: %w", tick, err)
					}
				}
				if sup != nil && sup.Generation() != gen {
					// A mid-round re-provision invalidated every ID; the
					// fresh batch died with the old generation too.
					gen, open, fresh = sup.Generation(), nil, nil
				}
				for _, id := range open {
					if err := srv.Disconnect(id); err != nil && sup == nil {
						return nil, fmt.Errorf("sim: tick %d: %w", tick, err)
					}
				}
				open = fresh
			}
			if err := srv.Maintain(); err != nil && sup == nil {
				return nil, fmt.Errorf("sim: tick %d maintain: %w", tick, err)
			}
		}
		k.Tick()
		matches := sc.Scan()
		res.Samples = append(res.Samples, TickSample{
			Tick:          tick,
			Matches:       matches,
			Summary:       scan.Summarize(matches),
			ServerRunning: srv != nil,
			Conns:         len(open),
		})
	}
	return res, nil
}

// startSupervised boots the configured server under a supervisor, with
// an escrow anchor provisioned from the run's key — the same out-of-RAM
// trust the initial key install assumes — so a destroyed sealed master
// can re-provision mid-timeline.
func startSupervised(k *kernel.Kernel, cfg Config, key *rsakey.PrivateKey) (*supervise.Supervisor, error) {
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		return nil, fmt.Errorf("sim: anchor: %w", err)
	}
	kind := host.KindSSHD
	if cfg.Kind == KindApache {
		kind = host.KindHTTPD
	}
	sup := supervise.New(k, supervise.Config{
		Kind: kind, KeyPath: KeyPath, Level: cfg.Level,
		Seed: stats.DeriveSeed(cfg.Seed, 3), Policy: *cfg.Recovery,
		Anchor: anchor, AnchorSlot: slot,
	})
	if err := sup.Start(); err != nil {
		return nil, fmt.Errorf("sim: supervised start: %w", err)
	}
	return sup, nil
}

// startServer boots the configured server kind.
func startServer(k *kernel.Kernel, cfg Config) (host.Server, error) {
	switch cfg.Kind {
	case KindSSH:
		s, err := sshd.Start(k, sshd.Config{KeyPath: KeyPath, Level: cfg.Level, Seed: stats.DeriveSeed(cfg.Seed, 3)})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return host.SSHD{Server: s}, nil
	case KindApache:
		s, err := httpd.Start(k, httpd.Config{KeyPath: KeyPath, Level: cfg.Level, Seed: stats.DeriveSeed(cfg.Seed, 3)})
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		return host.HTTPD{Server: s}, nil
	default:
		return nil, errors.New("sim: unknown server kind")
	}
}
