// Fleet storms: many supervised machines weathering fault storms under
// ONE fleet-level recovery arbiter, instead of each machine spending
// anchor material the moment it wants to.
//
// Every machine runs the same chaos mix as a single-machine soak storm
// (internal/supervise.RunStorm): a supervised server at LevelSealed, a
// probabilistic fault plan armed across every site, seeded workload ops,
// invariants checked as it goes. The fleet twist is the re-provision
// path. Each supervisor's ReprovisionGate always declines, so a
// fail-closed sealed-key destroy PARKS the machine instead of silently
// drawing from its anchor. Between drive rounds the fleet scheduler walks
// the machines serially, in machine-index order, and grants parked
// machines a resume from one shared budget until it runs dry; machines
// past the budget stay parked — degraded, honest, never over-claiming.
//
// Determinism: drive rounds fan machines out over the worker pool with
// ordered commit (each machine is its own kernel; nothing is shared), and
// the grant walk is serial in machine order. The combined log and
// fingerprint are therefore byte-identical at any worker count — the same
// contract as the fleet traffic engine and RunStorms.
package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/runner"
	"memshield/internal/scan"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

// StormConfig describes one fleet storm.
type StormConfig struct {
	// Machines is the fleet size (default 4).
	Machines int
	// Rounds is the number of drive+grant rounds (default 8).
	Rounds int
	// StepsPerRound is each machine's workload steps per drive round
	// (default 40).
	StepsPerRound int
	// Kind selects the server (default sshd).
	Kind Kind
	// Level is the protection level (default LevelSealed — the only level
	// whose fail-closed destroy exercises the park/grant path).
	Level protect.Level
	// Seed drives everything; machine i derives its own sub-streams from
	// DeriveSeed(Seed, i).
	Seed int64
	// Budget is the fleet-wide re-provision budget shared across all
	// machines (default Machines/2, minimum 1). Each grant spends one
	// unit; a parked machine past the budget stays parked.
	Budget int
	// MemPages / SwapPages / KeyBits size each machine (defaults 768 /
	// 16 / 512).
	MemPages  int
	SwapPages int
	KeyBits   int
	// Plan overrides the per-machine fault plan factory (nil = a
	// storm plan with the seal site hot enough to park machines within a
	// few rounds). The plan for machine i gets seed DeriveSeed(Seed, i, 4).
	Plan func(seed int64) *fault.Plan
	// Workers sizes the drive-round worker pool (0 = NumCPU).
	Workers int
}

func (c *StormConfig) applyDefaults() {
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.StepsPerRound == 0 {
		c.StepsPerRound = 40
	}
	if c.Kind == "" {
		c.Kind = KindSSHD
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelSealed
	}
	if c.Budget == 0 {
		c.Budget = c.Machines / 2
		if c.Budget < 1 {
			c.Budget = 1
		}
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
		c.Plan = defaultFleetPlan
	}
}

// defaultFleetPlan is DefaultStormPlan with the seal site hot: fleet
// storms are about the park/grant path, so fail-closed destroys need to
// happen within a few rounds rather than once in a long soak.
func defaultFleetPlan(seed int64) *fault.Plan {
	p := supervise.DefaultStormPlan(seed)
	p.Rules[fault.SiteSeal] = fault.Rule{Prob: 0.05}
	return p
}

// StormResult is one fleet storm's outcome.
type StormResult struct {
	Machines int
	Rounds   int
	// Parks counts park events across the fleet (a machine can park more
	// than once if granted and destroyed again).
	Parks int
	// Grants / Denials account the shared budget: every grant resumed one
	// parked machine, every denial left one parked for the round.
	Grants  int
	Denials int
	// BudgetLeft is the unspent share of the re-provision budget.
	BudgetLeft int
	// Survivors counts machines still serving at the end; Parked counts
	// machines that ended parked (degraded, waiting on a grant that never
	// came); Dead counts terminal supervisor failures.
	Survivors int
	Parked    int
	Dead      int
	// InvariantErr is the first machine-invariant violation ("" = none).
	InvariantErr string
	// Log is the deterministic fleet log: machine events in machine order
	// within each round, grant-walk lines between rounds.
	Log []string
	// Fingerprint condenses the log and final accounting for seed-replay
	// and worker-invariance checks.
	Fingerprint string
}

// stormMachine is one fleet member's standing state across rounds.
type stormMachine struct {
	idx    int
	k      *kernel.Kernel
	sup    *supervise.Supervisor
	status *protect.Status
	pat    []scan.Pattern
	rng    *rand.Rand
	open   []int
	gen    int
	prev   supervise.Counters
	parks  int
	// log accumulates this machine's lines for the current round only;
	// the fleet loop drains it after each ordered commit.
	log []string
	// violation is the first invariant break on this machine ("" = none);
	// a violated machine stops being driven.
	violation string
}

func (m *stormMachine) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf("m%d "+format, append([]any{m.idx}, args...)...))
}

// newStormMachine provisions fleet member idx: kernel under the fault
// plan, seeded key, anchor escrow, and a supervisor whose gate always
// parks — re-provision grants are the fleet scheduler's call, never the
// machine's.
func newStormMachine(cfg StormConfig, idx int) (*stormMachine, error) {
	base := stats.DeriveSeed(cfg.Seed, int64(idx))
	m := &stormMachine{idx: idx}
	var err error
	m.k, err = kernel.New(kernel.Config{
		MemPages:      cfg.MemPages,
		SwapPages:     cfg.SwapPages,
		DeallocPolicy: cfg.Level.KernelPolicy(),
		FaultPlan:     cfg.Plan(stats.DeriveSeed(base, 4)),
	})
	if err != nil {
		return nil, fmt.Errorf("fleet storm m%d: %w", idx, err)
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(base, 1)), cfg.KeyBits)
	if err != nil {
		return nil, fmt.Errorf("fleet storm m%d: %w", idx, err)
	}
	m.pat = scan.PatternsFor(key)
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		return nil, fmt.Errorf("fleet storm m%d: %w", idx, err)
	}
	m.status = protect.NewStatus(cfg.Level)
	// Per-machine re-provision budget must never bind before the shared
	// one: the fleet budget is the only arbiter.
	policy := supervise.DefaultPolicy(stats.DeriveSeed(base, 5))
	policy.Budget[supervise.OpReprovision] = cfg.Budget + 1
	const keyPath = "/etc/keys/fleet-storm.key"
	m.sup = supervise.New(m.k, supervise.Config{
		Kind: cfg.Kind, KeyPath: keyPath, Level: cfg.Level,
		Seed: stats.DeriveSeed(base, 3), Policy: policy,
		Anchor: anchor, AnchorSlot: slot, Status: m.status,
		ReprovisionGate: func() bool { return false },
		OnEvent: func(e supervise.Event) {
			m.logf("tick=%d ev=%s op=%s attempt=%d wait=%d err=%q",
				e.Tick, e.Kind, e.Op, e.Attempt, e.Wait, supervise.OneLine(e.Detail))
			if e.Kind == "parked" {
				m.parks++
			}
		},
	})
	if err := host.InstallKey(m.k, keyPath, key); err != nil {
		m.status.Refuse(fmt.Sprintf("key install: %v", err))
		m.logf("tick=%d ev=refused op=start err=%q", m.k.Clock(), supervise.OneLine(err.Error()))
	} else if err := m.sup.Start(); err != nil {
		m.logf("tick=%d ev=refused op=start err=%q", m.k.Clock(), supervise.OneLine(err.Error()))
	}
	m.rng = stats.NewRand(stats.DeriveSeed(base, 2))
	m.gen = m.sup.Generation()
	m.prev = m.sup.Counters()
	return m, nil
}

// drive runs one round of workload steps; a parked, dead or violated
// machine just lets its clock idle so backoff/scrub schedules stay live.
func (m *stormMachine) drive(steps int) {
	for step := 0; step < steps; step++ {
		if m.violation != "" {
			return
		}
		if m.sup.Failed() != nil || m.sup.Parked() != nil || !m.sup.Running() {
			m.k.Tick()
			continue
		}
		if g := m.sup.Generation(); g != m.gen {
			// A restarted generation invalidated every open connection.
			m.gen, m.open = g, nil
		}
		switch m.rng.Intn(6) {
		case 0, 1:
			if id, err := m.sup.Connect(); err == nil {
				m.open = append(m.open, id)
				_ = m.sup.Churn(id, 4096)
			}
		case 2:
			if len(m.open) > 0 {
				i := m.rng.Intn(len(m.open))
				_ = m.sup.Disconnect(m.open[i])
				m.open = append(m.open[:i], m.open[i+1:]...)
			}
		case 3:
			if len(m.open) > 0 {
				_ = m.sup.Churn(m.open[m.rng.Intn(len(m.open))], 4096)
			}
		case 4:
			if pid := m.sup.PID(); pid != 0 {
				if _, err := m.k.MemoryPressure(pid, 2); err != nil {
					m.logf("tick=%d ev=pressure-error err=%q", m.k.Clock(), supervise.OneLine(err.Error()))
				}
			}
		case 5:
			_ = m.sup.Maintain()
		}
		m.k.Tick()
		// The audit runs at the claimed level: a parked machine claims
		// only what it has.
		if v := m.sup.CheckInvariants(m.pat, m.prev); v != "" {
			m.violation = v
			m.logf("tick=%d ev=violation err=%q", m.k.Clock(), supervise.OneLine(v))
			return
		}
		m.prev = m.sup.Counters()
	}
}

// RunFleetStorm executes one fleet storm: provision the fleet, then
// alternate parallel drive rounds with serial grant walks over the shared
// re-provision budget. The returned error covers only harness bugs;
// every in-storm failure is part of the result.
func RunFleetStorm(cfg StormConfig) (*StormResult, error) {
	cfg.applyDefaults()
	res := &StormResult{Machines: cfg.Machines, Rounds: cfg.Rounds}
	res.Log = append(res.Log, fmt.Sprintf(
		"fleetstorm machines=%d rounds=%d steps=%d kind=%s level=%s seed=%d budget=%d",
		cfg.Machines, cfg.Rounds, cfg.StepsPerRound, cfg.Kind, cfg.Level, cfg.Seed, cfg.Budget))

	// Provision in parallel with ordered commit; setup lines land in
	// machine order.
	machines, err := runner.Map(cfg.Workers, cfg.Machines, func(i int) (*stormMachine, error) {
		return newStormMachine(cfg, i)
	})
	if err != nil {
		return nil, err
	}
	drain := func(m *stormMachine) {
		res.Log = append(res.Log, m.log...)
		m.log = m.log[:0]
	}
	for _, m := range machines {
		drain(m)
	}

	budget := cfg.Budget
	for round := 0; round < cfg.Rounds; round++ {
		// Drive phase: every machine advances independently; ordered
		// commit keeps the combined log worker-invariant.
		if _, err := runner.Map(cfg.Workers, cfg.Machines, func(i int) (struct{}, error) {
			machines[i].drive(cfg.StepsPerRound)
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
		for _, m := range machines {
			drain(m)
		}
		// Grant phase: serial, machine-index order — THE deterministic
		// arbitration order for the shared budget.
		for _, m := range machines {
			if m.sup.Parked() == nil {
				continue
			}
			if budget <= 0 {
				res.Denials++
				res.Log = append(res.Log, fmt.Sprintf(
					"round=%d grant m%d denied budget=0 cause=%q",
					round, m.idx, supervise.OneLine(m.sup.Parked().Error())))
				continue
			}
			budget--
			res.Grants++
			res.Log = append(res.Log, fmt.Sprintf(
				"round=%d grant m%d budget-left=%d", round, m.idx, budget))
			if err := m.sup.ResumeReprovision(); err != nil {
				res.Log = append(res.Log, fmt.Sprintf(
					"round=%d resume-failed m%d err=%q", round, m.idx, supervise.OneLine(err.Error())))
			}
			drain(m)
		}
	}

	res.BudgetLeft = budget
	for _, m := range machines {
		res.Parks += m.parks
		switch {
		case m.violation != "":
			if res.InvariantErr == "" {
				res.InvariantErr = fmt.Sprintf("m%d: %s", m.idx, m.violation)
			}
		case m.sup.Parked() != nil:
			res.Parked++
		case m.sup.Failed() != nil:
			res.Dead++
		case m.sup.Running():
			res.Survivors++
		default:
			res.Dead++
		}
		if err := m.sup.Stop(); err != nil {
			m.logf("tick=%d ev=stop-error err=%q", m.k.Clock(), supervise.OneLine(err.Error()))
		}
		m.k.Tick()
		c := m.sup.Counters()
		m.logf("final parked=%v dead=%v gen=%d epoch=%d reprovisions=%d restarts=%d effective=%s",
			m.sup.Parked() != nil, m.sup.Failed() != nil, m.sup.Generation(), m.sup.Epoch(),
			c.Reprovisions, c.Restarts, m.status.Effective())
		drain(m)
	}
	res.Log = append(res.Log, fmt.Sprintf(
		"final survivors=%d parked=%d dead=%d parks=%d grants=%d denials=%d budget-left=%d",
		res.Survivors, res.Parked, res.Dead, res.Parks, res.Grants, res.Denials, res.BudgetLeft))
	res.Fingerprint = stormLogFingerprint(res.Log)
	return res, nil
}

// stormLogFingerprint condenses the fleet log for replay comparison.
func stormLogFingerprint(log []string) string {
	h := fnv.New64a()
	for _, line := range log {
		_, _ = h.Write([]byte(line))
		_, _ = h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
