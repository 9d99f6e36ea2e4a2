// Package supervise turns the machine's refuse-and-die fault handling
// into bounded, deterministic, fail-closed recovery. Before it existed, a
// transient injected fault ended a run in refusal and a failed reseal
// destroyed the sealed master key forever; a production server facing a
// fault storm needs to outlive both — without ever claiming protection it
// does not have.
//
// The supervisor wraps one server (sshd or httpd) and applies two
// recovery mechanisms, both pure functions of the policy seed:
//
//   - Seeded retry with jittered backoff, measured in virtual kernel
//     ticks (never wall clock), for transient failures: unseal refusals,
//     allocation denials, swap-full evictions, I/O errors. Budgets are
//     per operation; exhaustion surfaces a typed ErrRetriesExhausted that
//     degrades through protect.Status exactly as a first failure used to.
//   - Sealed-key re-provisioning for the one failure retry cannot fix: a
//     SiteSeal fail-closed destroy. The supervisor re-derives a fresh
//     copy from the internal/hsm anchor (the only place the key still
//     exists — the destroyed region was scrubbed), re-installs the key
//     file, restarts the server under a new sealing epoch, and accounts
//     the outage as a closed GuaranteeSealedAtRest window in
//     protect.Status, so core.AuditEffective never over-claims and the
//     run's history never reads as continuously intact.
//
// Everything the supervisor does is deterministic at any worker count:
// backoff lengths come from stats.DeriveSeed(policy seed, op, attempt),
// waiting advances the machine's own clock, and the event stream is a
// pure function of the run's seeds (the soak harness in this package
// asserts byte-identical logs on replay).
package supervise

import (
	"errors"
	"fmt"

	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/scrub"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// Errors reported by the supervisor.
var (
	// ErrRetriesExhausted marks an operation abandoned after its retry
	// budget was spent; it wraps the last attempt's error, so both the
	// domain sentinel and fault.ErrInjected stay visible to errors.Is.
	ErrRetriesExhausted = errors.New("supervise: retries exhausted")
	// ErrNotStarted marks use of a supervisor whose Start never succeeded.
	ErrNotStarted = errors.New("supervise: server not started")
	// ErrUnknownKind marks a Config naming no known server kind.
	ErrUnknownKind = errors.New("supervise: unknown server kind")
	// ErrParked marks a supervisor waiting for a re-provision grant: the
	// sealed key was destroyed fail-closed and the ReprovisionGate refused
	// to spend anchor material yet. The dead generation is stopped, the
	// degradation window stays open, and ResumeReprovision continues the
	// recovery once the fleet scheduler grants it.
	ErrParked = errors.New("supervise: reprovision parked awaiting grant")
)

// Op names one supervised operation category; budgets and backoff
// streams are derived per Op. The integer value doubles as the op's label
// in the backoff seed derivation — append only.
type Op int

// Ops.
const (
	// OpStart covers server boot, both the initial one and supervised
	// restarts.
	OpStart Op = iota + 1
	// OpConnect covers accepting one connection (handshake included).
	OpConnect
	// OpChurn covers one transfer/request on an open connection.
	OpChurn
	// OpMaintain covers pool maintenance (httpd MaintainSpares).
	OpMaintain
	// OpReprovision covers sealed-key re-provisioning; its budget is per
	// run, not per invocation — each spent unit is a destroyed master.
	OpReprovision
)

func (o Op) String() string {
	switch o {
	case OpStart:
		return "start"
	case OpConnect:
		return "connect"
	case OpChurn:
		return "churn"
	case OpMaintain:
		return "maintain"
	case OpReprovision:
		return "reprovision"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Policy is one supervisor's deterministic retry configuration.
type Policy struct {
	// Seed drives the backoff jitter. Two policies with the same Seed
	// wait identically; the stream is split per (op, attempt) through
	// stats.DeriveSeed, so ops never perturb each other.
	Seed int64
	// Budget caps attempts per operation invocation (first try included;
	// minimum 1). OpReprovision's budget instead caps re-provisions per
	// run. Absent ops use DefaultPolicy's values.
	Budget map[Op]int
}

// A retry's backoff scale, in virtual ticks: baseBackoffTicks for the
// first retry, doubling per attempt up to maxBackoffTicks.
const (
	baseBackoffTicks = 1
	maxBackoffTicks  = 8
)

// DefaultPolicy returns the policy the soak and recovery harnesses use.
func DefaultPolicy(seed int64) Policy {
	return Policy{
		Seed: seed,
		Budget: map[Op]int{
			OpStart:       4,
			OpConnect:     4,
			OpChurn:       3,
			OpMaintain:    3,
			OpReprovision: 2,
		},
	}
}

// budget returns the attempt cap for op, defaulting any op the policy
// does not name.
func (p Policy) budget(op Op) int {
	if n, ok := p.Budget[op]; ok && n >= 1 {
		return n
	}
	if n, ok := DefaultPolicy(0).Budget[op]; ok {
		return n
	}
	return 1
}

// BackoffTicks returns the virtual-tick wait before retrying op's given
// attempt (1-based): an exponential base capped at maxBackoffTicks, plus
// a seeded jitter in [0, cap) — wait is always in [1, 2*cap). A pure
// function of (policy seed, op, attempt): replaying a run replays its
// waits exactly, and no wall clock is ever consulted.
func (p Policy) BackoffTicks(op Op, attempt int) int {
	exp := baseBackoffTicks
	for i := 1; i < attempt && exp < maxBackoffTicks; i++ {
		exp = min(2*exp, maxBackoffTicks)
	}
	jitter := int(uint64(stats.DeriveSeed(p.Seed, int64(op), int64(attempt))) % uint64(exp))
	return exp + jitter
}

// Counters accounts a supervisor's recovery activity. Every field is
// monotonically non-decreasing over a run — the soak harness checks that
// invariant every tick.
type Counters struct {
	// Retries counts failed attempts that were backed off and retried.
	Retries int
	// BackoffTicks counts virtual ticks spent waiting between attempts.
	BackoffTicks int
	// Recoveries counts operations that succeeded after at least one
	// retry (restarts included).
	Recoveries int
	// Exhaustions counts operations abandoned with ErrRetriesExhausted.
	Exhaustions int
	// Reprovisions counts successful sealed-key re-provisions.
	Reprovisions int
	// Restarts counts server generations beyond the first.
	Restarts int
}

// Event is one entry of the supervisor's deterministic event stream.
type Event struct {
	// Tick is the machine clock when the event fired.
	Tick uint64
	// Kind is the event name: retry, recovered, exhausted, reprovision,
	// reprovisioned, restarted, dead.
	Kind string
	// Op is the operation the event concerns.
	Op Op
	// Attempt is the 1-based attempt number (reprovisions: the epoch).
	Attempt int
	// Wait is the backoff length in virtual ticks (retry events only).
	Wait int
	// Detail carries the triggering error's text, if any.
	Detail string
}

// Config describes one supervised server.
type Config struct {
	// Kind selects the server.
	Kind host.Kind
	// KeyPath is the key's PEM file in the simulated filesystem.
	KeyPath string
	// Level is the protection level to deploy.
	Level protect.Level
	// Seed is the server seed (handshake nonces, prekey streams), passed
	// through to the server config of every generation.
	Seed int64
	// Policy is the retry policy; a zero Policy means
	// DefaultPolicy(Seed).
	Policy Policy
	// Anchor, when set with AnchorSlot, is the out-of-RAM escrow the
	// sealed master is re-provisioned from after a fail-closed destroy.
	// Without an anchor, a destroy stays permanent exactly as it is
	// without supervision.
	Anchor *hsm.Module
	// AnchorSlot is the anchor slot holding the server's key.
	AnchorSlot int
	// Status, when set, receives the run's protection record across all
	// generations; when nil the supervisor tracks one internally.
	Status *protect.Status
	// OnEvent, when set, receives each recovery event synchronously (the
	// soak harness builds its log from this).
	OnEvent func(Event)
	// ReprovisionGate, when set, is consulted before a sealed-key
	// re-provision spends anchor material. Returning false parks the
	// supervisor instead of recovering: the dead generation is stopped,
	// Parked() reports the pending cause, and the recovery continues only
	// when ResumeReprovision is called (which bypasses the gate). A fleet
	// scheduler uses this to arbitrate a shared re-provision budget across
	// machines in a deterministic order (internal/fleet); nil grants
	// every re-provision immediately, exactly as before the gate existed.
	// The gate must be a pure function of state owned by the machine's
	// driving goroutine — it runs inside the supervisor's retry loop.
	ReprovisionGate func() bool
}

// Supervisor runs one server under the recovery policy. It is itself a
// host.Server, so a driver holds a supervised server the way it holds a
// bare one. Like the rest of the machine it is single-goroutine.
type Supervisor struct {
	k      *kernel.Kernel
	cfg    Config
	policy Policy
	status *protect.Status

	srv        host.Server
	generation int
	epoch      int64
	counters   Counters
	failed     error
	parked     error
	stopped    bool
}

// New prepares a supervisor. Call Start to boot the first generation;
// the supervisor (its status, counters and event stream) is usable for
// inspection whether or not Start succeeds.
func New(k *kernel.Kernel, cfg Config) *Supervisor {
	policy := cfg.Policy
	if policy.Budget == nil && policy.Seed == 0 {
		policy = DefaultPolicy(cfg.Seed)
	}
	status := cfg.Status
	if status == nil {
		status = protect.NewStatus(cfg.Level)
	}
	return &Supervisor{k: k, cfg: cfg, policy: policy, status: status}
}

// Start boots the first server generation, retrying transient boot
// failures within OpStart's budget. On success after a retried refusal
// the refusal window is closed (RepairRefusal); on exhaustion or a
// permanent failure the server's own refusal stands and the error is
// returned — a supervised run that cannot start ends exactly as an
// unsupervised one does: refused, scrubbed, claiming nothing.
func (s *Supervisor) Start() error {
	if s.srv != nil {
		return nil
	}
	return s.startServer()
}

// boot starts one server generation with the current epoch, sharing the
// run-wide status.
func (s *Supervisor) boot() error {
	switch s.cfg.Kind {
	case host.KindSSHD:
		srv, err := sshd.Start(s.k, sshd.Config{
			KeyPath: s.cfg.KeyPath, Level: s.cfg.Level,
			Seed: s.cfg.Seed, SealEpoch: s.epoch, Status: s.status,
		})
		if err != nil {
			return err
		}
		s.srv = host.SSHD{Server: srv}
	case host.KindHTTPD:
		srv, err := httpd.Start(s.k, httpd.Config{
			KeyPath: s.cfg.KeyPath, Level: s.cfg.Level,
			Seed: s.cfg.Seed, SealEpoch: s.epoch, Status: s.status,
		})
		if err != nil {
			return err
		}
		s.srv = host.HTTPD{Server: srv}
	default:
		return fmt.Errorf("%w: %q", ErrUnknownKind, s.cfg.Kind)
	}
	s.generation++
	if s.generation > 1 {
		s.counters.Restarts++
		s.emit(Event{Kind: "restarted", Op: OpStart, Attempt: s.generation})
	}
	return nil
}

// startServer drives boot attempts under OpStart's budget. Each failed
// boot has already refused the status (the server's own fail-closed
// path); a later success within the budget repairs that refusal into a
// closed window, keeping the outage on the record.
func (s *Supervisor) startServer() error {
	budget := s.policy.budget(OpStart)
	for attempt := 1; ; attempt++ {
		err := s.boot()
		if err == nil {
			if attempt > 1 {
				s.counters.Recoveries++
				s.status.RepairRefusal(fmt.Sprintf("supervised restart succeeded on attempt %d", attempt))
				s.emit(Event{Kind: "recovered", Op: OpStart, Attempt: attempt})
			}
			return nil
		}
		if Classify(err) != ClassTransient {
			return err
		}
		if attempt >= budget {
			s.counters.Exhaustions++
			s.emit(Event{Kind: "exhausted", Op: OpStart, Attempt: attempt, Detail: err.Error()})
			return fmt.Errorf("%w: %s after %d attempts: %w", ErrRetriesExhausted, OpStart, attempt, err)
		}
		s.retryWait(OpStart, attempt, err)
	}
}

// retryWait accounts one retry and waits its backoff out in virtual
// ticks, advancing the machine clock (deferred zeroing and swap pressure
// keep running — the wait is real machine time, just not wall time).
func (s *Supervisor) retryWait(op Op, attempt int, cause error) {
	wait := s.policy.BackoffTicks(op, attempt)
	s.counters.Retries++
	s.counters.BackoffTicks += wait
	s.emit(Event{Kind: "retry", Op: op, Attempt: attempt, Wait: wait, Detail: cause.Error()})
	for i := 0; i < wait; i++ {
		s.k.Tick()
	}
}

// retry drives fn under op's budget: transient failures back off and
// re-run, reprovision-class failures trigger the re-provision flow and
// then re-run, permanent failures return immediately. fn reads s.srv at
// call time, so a re-provisioned generation serves the retried attempt.
func (s *Supervisor) retry(op Op, fn func() error) error {
	budget := s.policy.budget(op)
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			if attempt > 1 {
				s.counters.Recoveries++
				s.emit(Event{Kind: "recovered", Op: op, Attempt: attempt})
			}
			return nil
		}
		switch Classify(err) {
		case ClassReprovision:
			if rerr := s.reprovision(err, false); rerr != nil {
				return rerr
			}
		case ClassTransient:
		default:
			return err
		}
		if attempt >= budget {
			s.counters.Exhaustions++
			s.emit(Event{Kind: "exhausted", Op: op, Attempt: attempt, Detail: err.Error()})
			return fmt.Errorf("%w: %s after %d attempts: %w", ErrRetriesExhausted, op, attempt, err)
		}
		s.retryWait(op, attempt, err)
	}
}

// reprovision recovers from a fail-closed sealed-key destroy: stop the
// dead generation, draw a fresh key copy from the anchor, re-install the
// key file, restart under the next epoch, and close the sealed-at-rest
// degradation window. At no point does plaintext key material touch
// simulated memory outside the paths an initial provisioning uses: the
// destroyed region was already scrubbed by seal's fail-closed path, the
// anchor export lives in native memory and is scrubbed here, and the new
// generation seals before serving. Any failure along the way is terminal
// for the supervisor — the run ends refused (or still-degraded), never
// over-claiming.
//
// granted marks a resume that already holds a gate grant; a fresh
// failure (granted=false) consults cfg.ReprovisionGate after the
// permanent checks and parks instead of recovering when the gate
// declines.
func (s *Supervisor) reprovision(cause error, granted bool) error {
	if s.cfg.Anchor == nil {
		// No escrow: the destroy is permanent, exactly as without
		// supervision. The server's own paths already degraded the status.
		return cause
	}
	if s.counters.Reprovisions >= s.policy.budget(OpReprovision) {
		s.counters.Exhaustions++
		s.emit(Event{Kind: "exhausted", Op: OpReprovision, Attempt: s.counters.Reprovisions, Detail: cause.Error()})
		return fmt.Errorf("%w: %s budget (%d) spent: %w", ErrRetriesExhausted, OpReprovision, s.policy.budget(OpReprovision), cause)
	}
	if !granted && s.cfg.ReprovisionGate != nil && !s.cfg.ReprovisionGate() {
		// Park: stop the dead generation (its sealed region is already
		// scrubbed) and wait for ResumeReprovision. The degradation window
		// opened by the fail-closed destroy stays open — a parked machine
		// never claims protection it lost.
		if s.srv != nil && s.srv.Running() {
			if err := s.srv.Stop(); err != nil {
				s.emit(Event{Kind: "teardown", Op: OpReprovision, Attempt: int(s.epoch) + 1, Detail: err.Error()})
			}
		}
		s.srv = nil
		s.parked = cause
		s.emit(Event{Kind: "parked", Op: OpReprovision, Attempt: int(s.epoch) + 1, Detail: cause.Error()})
		return fmt.Errorf("%w: %v", ErrParked, cause)
	}
	s.emit(Event{Kind: "reprovision", Op: OpReprovision, Attempt: int(s.epoch) + 1, Detail: cause.Error()})
	// Tear the dead generation down. Its sealed region is already
	// destroyed (scrubbed in place); teardown errors degrade the status
	// through the server's own paths and must not block the recovery —
	// but they are kept on the event stream.
	if s.srv != nil && s.srv.Running() {
		if err := s.srv.Stop(); err != nil {
			s.emit(Event{Kind: "teardown", Op: OpReprovision, Attempt: int(s.epoch) + 1, Detail: err.Error()})
		}
	}
	s.srv = nil
	pem, err := s.cfg.Anchor.ExportPEM(s.cfg.AnchorSlot)
	defer scrub.Bytes(pem)
	if err != nil {
		s.failed = fmt.Errorf("supervise: reprovision: anchor export: %w", err)
		s.status.Refuse(s.failed.Error())
		s.emit(Event{Kind: "dead", Op: OpReprovision, Detail: s.failed.Error()})
		return errors.Join(cause, s.failed)
	}
	if err := s.k.FS().WriteFile(s.cfg.KeyPath, pem); err != nil {
		s.failed = fmt.Errorf("supervise: reprovision: key install: %w", err)
		s.status.Refuse(s.failed.Error())
		s.emit(Event{Kind: "dead", Op: OpReprovision, Detail: s.failed.Error()})
		return errors.Join(cause, s.failed)
	}
	s.epoch++
	if err := s.startServer(); err != nil {
		// Each failed boot refused the status; the refusal stands and the
		// supervised run ends refused — scrubbed and audit-clean.
		s.failed = fmt.Errorf("supervise: reprovision: restart: %w", err)
		s.emit(Event{Kind: "dead", Op: OpReprovision, Detail: s.failed.Error()})
		return errors.Join(cause, s.failed)
	}
	s.counters.Reprovisions++
	s.status.Repair(protect.GuaranteeSealedAtRest,
		fmt.Sprintf("re-provisioned from anchor under epoch %d", s.epoch))
	s.emit(Event{Kind: "reprovisioned", Op: OpReprovision, Attempt: int(s.epoch)})
	return nil
}

func (s *Supervisor) emit(e Event) {
	if s.cfg.OnEvent == nil {
		return
	}
	e.Tick = s.k.Clock()
	s.cfg.OnEvent(e)
}

// ready gates the steady-state operations.
func (s *Supervisor) ready() error {
	switch {
	case s.failed != nil:
		return s.failed
	case s.parked != nil:
		return fmt.Errorf("%w: %v", ErrParked, s.parked)
	case s.srv == nil:
		return ErrNotStarted
	default:
		return nil
	}
}

// Parked returns the failure a parked supervisor is waiting to recover
// from, or nil when not parked.
func (s *Supervisor) Parked() error { return s.parked }

// ResumeReprovision continues a parked recovery with a grant in hand,
// bypassing the gate: the caller (a fleet scheduler arbitrating a shared
// budget) decides when the anchor material is spent. A no-op when not
// parked. On success the supervisor serves again under a new epoch; on
// failure it is dead, exactly as an ungated re-provision failure.
func (s *Supervisor) ResumeReprovision() error {
	if s.parked == nil {
		return nil
	}
	cause := s.parked
	s.parked = nil
	return s.reprovision(cause, true)
}

// Connect accepts one connection under the retry policy and returns its
// ID. A connection ID is only valid within the generation that issued it
// (Generation); after a supervised restart, old IDs answer ErrNoConn.
func (s *Supervisor) Connect() (int, error) {
	if err := s.ready(); err != nil {
		return 0, err
	}
	var id int
	err := s.retry(OpConnect, func() error {
		v, err := s.srv.Connect()
		id = v
		return err
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Churn moves n payload bytes over a connection under the retry policy.
func (s *Supervisor) Churn(id, n int) error {
	if err := s.ready(); err != nil {
		return err
	}
	return s.retry(OpChurn, func() error { return s.srv.Churn(id, n) })
}

// Disconnect closes a connection. Teardown is not retried: its failure
// modes (zero-on-free denials) are permanent by design and the server's
// own paths have already degraded the status honestly.
func (s *Supervisor) Disconnect(id int) error {
	if err := s.ready(); err != nil {
		return err
	}
	return s.srv.Disconnect(id)
}

// Maintain runs pool maintenance under the retry policy.
func (s *Supervisor) Maintain() error {
	if err := s.ready(); err != nil {
		return err
	}
	return s.retry(OpMaintain, func() error { return s.srv.Maintain() })
}

// Stop shuts the current generation down.
func (s *Supervisor) Stop() error {
	s.stopped = true
	if s.srv == nil || !s.srv.Running() {
		return nil
	}
	return s.srv.Stop()
}

// PID returns the current generation's master/parent PID (0 if none).
func (s *Supervisor) PID() int {
	if s.srv == nil {
		return 0
	}
	return s.srv.PID()
}

// Running reports whether a server generation is currently serving.
func (s *Supervisor) Running() bool {
	return s.srv != nil && !s.stopped && s.failed == nil && s.srv.Running()
}

// Failed returns the terminal error that killed the supervisor, if any.
func (s *Supervisor) Failed() error { return s.failed }

// Generation returns the current server generation (1 = first boot).
func (s *Supervisor) Generation() int { return s.generation }

// Epoch returns the current sealing provisioning epoch (0 = initial).
func (s *Supervisor) Epoch() int64 { return s.epoch }

// Counters returns a snapshot of the recovery counters.
func (s *Supervisor) Counters() Counters { return s.counters }

// Status returns the run-wide protection record.
func (s *Supervisor) Status() *protect.Status { return s.status }
