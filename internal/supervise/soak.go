// Chaos soak harness: long seeded fault storms driven through a
// supervised server, with the machine's invariants checked at every step
// and a deterministic event log.
//
// A storm is one machine under a probabilistic fault plan armed across
// every site, serving a seeded connection workload through a Supervisor.
// After every workload step (one machine tick; backoff waits advance the
// clock further inside a step) the harness asserts:
//
//   - structural consistency: alloc.CheckConsistency, vm.CheckConsistency;
//   - no false security: core.AuditEffective is clean at the level the
//     run currently claims — which at sealed effective levels includes
//     the "no plaintext at rest" rule (any allocated d/p/q copy while
//     claiming sealed is a violation), so a re-provision window can never
//     hide exposed key bytes;
//   - monotonic recovery counters: no Counters field ever decreases.
//
// The event log is a pure function of the storm seed: replaying a seed
// reproduces it byte for byte, and RunStorms' worker fan-out (one machine
// per storm, ordered commit via internal/runner) keeps the combined log
// byte-identical at any worker count. cmd/soak wires this to the CLI and
// CI (`make soak-smoke`).
package supervise

import (
	"fmt"
	"strings"

	"memshield/internal/core"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/runner"
	"memshield/internal/scan"
	"memshield/internal/stats"
)

// StormConfig describes one soak storm.
type StormConfig struct {
	// Kind selects the server (default host.KindSSHD).
	Kind host.Kind
	// Level is the protection level (default LevelSealed — the level
	// whose recovery story has the most moving parts).
	Level protect.Level
	// Seed drives everything: keygen (sub-stream 1), the workload op mix
	// (2), the server seed (3), the fault plan (4), the retry policy (5).
	Seed int64
	// Steps is the workload length in steps (default 200). Each step
	// ends with one machine tick plus the full invariant check; retries
	// inside a step advance the clock further.
	Steps int
	// MemPages / SwapPages size the machine (default 768 / 16).
	MemPages  int
	SwapPages int
	// KeyBits sizes the RSA key (default 512).
	KeyBits int
	// Plan overrides the fault plan (nil = DefaultStormPlan(Seed)).
	Plan *fault.Plan
	// Policy overrides the retry policy (zero = DefaultPolicy of
	// sub-stream 5).
	Policy Policy
}

func (c *StormConfig) applyDefaults() {
	if c.Kind == "" {
		c.Kind = host.KindSSHD
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelSealed
	}
	if c.Steps == 0 {
		c.Steps = 200
	}
	if c.MemPages == 0 {
		c.MemPages = 768
	}
	if c.SwapPages == 0 {
		c.SwapPages = 16
	}
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if c.Plan == nil {
		c.Plan = DefaultStormPlan(c.Seed)
	}
	if c.Policy.Budget == nil && c.Policy.Seed == 0 && c.Policy.BaseBackoffTicks == 0 && c.Policy.MaxBackoffTicks == 0 {
		c.Policy = DefaultPolicy(stats.DeriveSeed(c.Seed, 5))
	}
}

// DefaultStormPlan arms every site with the soak probabilities: rarely
// consulted sites get high odds, hot sites low odds, so most storms
// survive setup and the steady-state recovery paths do the work.
func DefaultStormPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: stats.DeriveSeed(seed, 4),
		Rules: map[fault.Site]fault.Rule{
			fault.SiteAllocPages: {Prob: 0.002},
			fault.SiteZeroOnFree: {Prob: 0.01},
			fault.SiteMlock:      {Prob: 0.05},
			fault.SiteSwapStore:  {Prob: 0.2},
			fault.SiteEvict:      {Prob: 0.2},
			fault.SiteFSRead:     {Prob: 0.02},
			fault.SiteMalloc:     {Prob: 0.002},
			fault.SiteUnseal:     {Prob: 0.05},
			fault.SiteSeal:       {Prob: 0.01},
		},
	}
}

// StormResult is one storm's complete outcome.
type StormResult struct {
	Kind  host.Kind
	Level protect.Level
	Seed  int64
	// Log is the deterministic event log, one line per entry.
	Log []string
	// Counters is the supervisor's final recovery accounting.
	Counters Counters
	// Generation / Epoch are the final server generation and sealing
	// provisioning epoch.
	Generation int
	Epoch      int64
	// Refused / Effective are the final protection claim.
	Refused   bool
	Effective protect.Level
	// Survived reports whether the server was still serving when the
	// storm ended (a refused or dead run sets it false).
	Survived bool
	// InvariantErr is the first invariant violation, if any ("" = none).
	// Any non-empty value is a harness-level failure: the storm found a
	// machine state the fault model promises is unreachable.
	InvariantErr string
	// Fingerprint condenses everything replay-sensitive: per-site
	// injection counters, recovery counters, status summary, scan census.
	Fingerprint string
}

// RunStorm executes one storm. The returned error covers only harness
// bugs (setup outside the faulted surface); every in-storm failure is
// part of the result.
func RunStorm(cfg StormConfig) (*StormResult, error) {
	cfg.applyDefaults()
	res := &StormResult{Kind: cfg.Kind, Level: cfg.Level, Seed: cfg.Seed}
	logf := func(format string, args ...any) {
		res.Log = append(res.Log, fmt.Sprintf(format, args...))
	}
	logf("storm kind=%s level=%s seed=%d steps=%d mem=%d swap=%d",
		cfg.Kind, cfg.Level, cfg.Seed, cfg.Steps, cfg.MemPages, cfg.SwapPages)

	k, err := kernel.New(kernel.Config{
		MemPages:      cfg.MemPages,
		SwapPages:     cfg.SwapPages,
		DeallocPolicy: cfg.Level.KernelPolicy(),
		FaultPlan:     cfg.Plan,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(cfg.Seed, 1)), cfg.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	patterns := scan.PatternsFor(key)
	// The anchor is provisioned out-of-band, before the storm: the same
	// trust model as the initial key install.
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	status := protect.NewStatus(cfg.Level)
	const keyPath = "/etc/keys/soak.key"
	sup := New(k, Config{
		Kind: cfg.Kind, KeyPath: keyPath, Level: cfg.Level,
		Seed: stats.DeriveSeed(cfg.Seed, 3), Policy: cfg.Policy,
		Anchor: anchor, AnchorSlot: slot, Status: status,
		OnEvent: func(e Event) {
			logf("tick=%d ev=%s op=%s attempt=%d wait=%d err=%q",
				e.Tick, e.Kind, e.Op, e.Attempt, e.Wait, OneLine(e.Detail))
		},
	})
	if err := host.InstallKey(k, keyPath, key); err != nil {
		status.Refuse(fmt.Sprintf("key install: %v", err))
		logf("tick=%d ev=refused op=start attempt=0 wait=0 err=%q", k.Clock(), OneLine(err.Error()))
	} else if err := sup.Start(); err != nil {
		logf("tick=%d ev=refused op=start attempt=0 wait=0 err=%q", k.Clock(), OneLine(err.Error()))
	}

	rng := stats.NewRand(stats.DeriveSeed(cfg.Seed, 2))
	var open []int
	gen := sup.Generation()
	prev := sup.Counters()
	step := 0
	for ; step < cfg.Steps; step++ {
		if sup.Failed() != nil || (!sup.Running() && step > 0) {
			break
		}
		if g := sup.Generation(); g != gen {
			// A restarted generation invalidated every open connection.
			gen, open = g, nil
		}
		switch rng.Intn(6) {
		case 0, 1:
			if id, err := sup.Connect(); err == nil {
				open = append(open, id)
				_ = sup.Churn(id, 4096)
			}
		case 2:
			if len(open) > 0 {
				i := rng.Intn(len(open))
				_ = sup.Disconnect(open[i])
				open = append(open[:i], open[i+1:]...)
			}
		case 3:
			if len(open) > 0 {
				_ = sup.Churn(open[rng.Intn(len(open))], 4096)
			}
		case 4:
			if pid := sup.PID(); pid != 0 {
				if _, err := k.MemoryPressure(pid, 2); err != nil {
					logf("tick=%d ev=pressure-error op=churn attempt=0 wait=0 err=%q",
						k.Clock(), OneLine(err.Error()))
				}
			}
		case 5:
			_ = sup.Maintain()
		}
		k.Tick()
		if v := sup.CheckInvariants(patterns, prev); v != "" {
			res.InvariantErr = v
			logf("tick=%d ev=violation step=%d err=%q", k.Clock(), step, OneLine(v))
			break
		}
		prev = sup.Counters()
	}
	res.Survived = sup.Running() && res.InvariantErr == ""
	if err := sup.Stop(); err != nil {
		logf("tick=%d ev=stop-error err=%q", k.Clock(), OneLine(err.Error()))
	}
	k.Tick()
	if res.InvariantErr == "" {
		if v := sup.CheckInvariants(patterns, prev); v != "" {
			res.InvariantErr = v
			logf("tick=%d ev=violation step=end err=%q", k.Clock(), OneLine(v))
		}
	}

	res.Counters = sup.Counters()
	res.Generation = sup.Generation()
	res.Epoch = sup.Epoch()
	res.Refused, _ = status.Refused()
	res.Effective = status.Effective()
	rep := core.NewWithStatus(k, status).AuditEffective(patterns)
	res.Fingerprint = stormFingerprint(k.Injector(), rep, status, res)
	logf("final steps=%d survived=%v gen=%d epoch=%d retries=%d backoff=%d recoveries=%d exhaustions=%d reprovisions=%d restarts=%d",
		step, res.Survived, res.Generation, res.Epoch,
		res.Counters.Retries, res.Counters.BackoffTicks, res.Counters.Recoveries,
		res.Counters.Exhaustions, res.Counters.Reprovisions, res.Counters.Restarts)
	logf("final status=%q effective=%s fingerprint=%s", status.Summary(), res.Effective, res.Fingerprint)
	return res, nil
}

// stormFingerprint condenses a finished storm for seed-replay comparison.
func stormFingerprint(in *fault.Injector, rep *core.Report, st *protect.Status, res *StormResult) string {
	var b strings.Builder
	for _, site := range fault.Sites() {
		fmt.Fprintf(&b, "%s=%d/%d;", site, in.Injected(site), in.Calls(site))
	}
	fmt.Fprintf(&b, "|total=%d alloc=%d unalloc=%d swap=%d",
		rep.Summary.Total, rep.Summary.Allocated, rep.Summary.Unallocated, rep.SwapHits)
	fmt.Fprintf(&b, "|gen=%d epoch=%d %+v", res.Generation, res.Epoch, res.Counters)
	fmt.Fprintf(&b, "|%s|%s", st.Summary(), strings.Join(rep.Violations, "; "))
	return b.String()
}

// RunStorms executes one storm per config, fanned out over the worker
// pool with ordered commit: the i-th result is always storm i's, so the
// concatenated log is byte-identical at any worker count (each storm owns
// its machine; nothing is shared).
func RunStorms(cfgs []StormConfig, workers int) ([]*StormResult, error) {
	return runner.Map(workers, len(cfgs), func(i int) (*StormResult, error) {
		return RunStorm(cfgs[i])
	})
}

// CheckInvariants asserts the storm invariants on the supervisor's machine
// after a step and returns the first violation, or "" when all hold:
// allocator and VM consistency, no recovery counter below prev, and a
// clean effective-level audit for patterns. Fleet storms run the same
// check on every member.
func (s *Supervisor) CheckInvariants(patterns []scan.Pattern, prev Counters) string {
	if err := s.k.Alloc().CheckConsistency(); err != nil {
		return fmt.Sprintf("allocator inconsistent: %v", err)
	}
	if err := s.k.VM().CheckConsistency(); err != nil {
		return fmt.Sprintf("vm inconsistent: %v", err)
	}
	cur := s.counters
	if cur.Retries < prev.Retries || cur.BackoffTicks < prev.BackoffTicks ||
		cur.Recoveries < prev.Recoveries || cur.Exhaustions < prev.Exhaustions ||
		cur.Reprovisions < prev.Reprovisions || cur.Restarts < prev.Restarts {
		return fmt.Sprintf("recovery counters regressed: %+v -> %+v", prev, cur)
	}
	// The effective-level audit is the no-false-security gate; at a
	// sealed effective level its rules include "zero allocated plaintext
	// key parts" — no plaintext at rest, re-provision windows included.
	if rep := core.NewWithStatus(s.k, s.status).AuditEffective(patterns); !rep.OK() {
		return fmt.Sprintf("audit violations at %s: %s",
			s.status.Effective(), strings.Join(rep.Violations, "; "))
	}
	return ""
}

// OneLine flattens error text for a log: joined errors print multi-line
// and the storm logs' replay contract is line-oriented.
func OneLine(s string) string {
	return strings.ReplaceAll(s, "\n", " | ")
}
