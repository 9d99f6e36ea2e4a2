// Fault-matrix harness: drives both case-study servers at every
// protection level with deterministic fault injection armed across the
// whole sim syscall surface (internal/fault), and asserts the three
// robustness properties the fault model promises (DESIGN.md §8):
//
//  1. No panics — every injected failure surfaces as an error; the
//     machine layers never crash (the nopanic analyzer proves the
//     absence of panic calls statically, this matrix proves the dynamic
//     paths behave).
//  2. Structural consistency — whatever was injected, the allocator's
//     and the VM's invariants hold afterwards: failures may leak pages
//     (reported, allocated, consistent), never corrupt bookkeeping.
//  3. No false security — the protection level the run REPORTS after
//     fail-closed refusals and degradations (protect.Status.Effective)
//     is one the memory scanner verifies: core.AuditEffective finds no
//     violations, ever.
//
// Every decision is a pure function of the plan seed, so each scenario
// also replays byte-identically: the determinism test re-runs a scenario
// and compares full fingerprints (per-site call/injection counts, final
// scan census, status summary).
//
// Run with `make test-faults` (CI runs it under -race).
package memshield

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"memshield/internal/core"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/kernel"
	"memshield/internal/kernel/vm"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

const faultKeyPath = "/etc/keys/server.key"

// matrixLevels are the six configurations the matrix sweeps — the
// paper's four countermeasure levels, the unpatched baseline, and the
// sealed extension (whose unseal/reseal windows add two fault sites).
var matrixLevels = []protect.Level{
	protect.LevelNone, protect.LevelApp, protect.LevelLibrary,
	protect.LevelKernel, protect.LevelIntegrated, protect.LevelSealed,
}

// matrixPlan arms every site probabilistically. Mlock/SwapStore/Evict are
// consulted rarely, so they get high per-call odds; the hot allocation
// sites get low odds so most scenarios survive setup and exercise the
// steady-state paths too.
func matrixPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Rules: map[fault.Site]fault.Rule{
			fault.SiteAllocPages: {Prob: 0.01},
			fault.SiteZeroOnFree: {Prob: 0.05},
			fault.SiteMlock:      {Prob: 0.25},
			fault.SiteSwapStore:  {Prob: 0.25},
			fault.SiteEvict:      {Prob: 0.25},
			fault.SiteFSRead:     {Prob: 0.03},
			fault.SiteMalloc:     {Prob: 0.01},
			// The sealed working window: a failed unseal is a transient
			// refusal, a failed reseal destroys the key fail-closed — both
			// must keep the audit clean at the level the run then claims.
			fault.SiteUnseal: {Prob: 0.1},
			fault.SiteSeal:   {Prob: 0.05},
		},
	}
}

// faultOutcome is everything one scenario produces, collected without a
// *testing.T so the determinism test can run scenarios twice and diff.
type faultOutcome struct {
	setupErr    error // machine boot / keygen / key install failed
	startErr    error // server start failed (must imply a refusal)
	refused     bool
	allocErr    error // alloc.CheckConsistency
	vmErr       error // vm.CheckConsistency
	violations  []string
	injected    int // machine-wide injected-failure count
	fingerprint string
}

// runFaultScenario executes one (server, level, seed) cell of the matrix.
// Per-operation errors are tolerated — an injected fault making a connect
// or a transfer fail IS the scenario — but every one must come back as an
// error, not a panic, and the final machine state must satisfy the three
// matrix properties.
func runFaultScenario(kind string, level protect.Level, seed int64) faultOutcome {
	var out faultOutcome
	plan := matrixPlan(seed)
	k, err := kernel.New(kernel.Config{
		MemPages:      768,
		SwapPages:     16,
		DeallocPolicy: level.KernelPolicy(),
		FaultPlan:     plan,
	})
	if err != nil {
		out.setupErr = err
		return out
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(seed, 1)), 512)
	if err != nil {
		out.setupErr = err
		return out
	}
	patterns := scan.PatternsFor(key)
	status := protect.NewStatus(level)
	// Installing the key can itself hit injected faults (the filesystem
	// allocates pages); a machine that cannot even store the key delivers
	// no protection claim, same as any other refused setup.
	if err := k.FS().WriteFile(faultKeyPath, key.MarshalPEM()); err != nil {
		status.Refuse(fmt.Sprintf("key install: %v", err))
		out.startErr = err
	} else {
		srv, err := startFaultServer(k, kind, level, seed, status)
		out.startErr = err
		if err == nil {
			driveFaultWorkload(k, srv, seed)
		}
	}
	out.refused, _ = status.Refused()
	out.allocErr = k.Alloc().CheckConsistency()
	out.vmErr = k.VM().CheckConsistency()
	rep := core.NewWithStatus(k, status).AuditEffective(patterns)
	out.violations = rep.Violations
	out.injected = k.Injector().TotalInjected()
	out.fingerprint = faultFingerprint(k.Injector(), rep, status)
	return out
}

func startFaultServer(k *kernel.Kernel, kind string, level protect.Level, seed int64, status *protect.Status) (host.Server, error) {
	switch kind {
	case "sshd":
		s, err := sshd.Start(k, sshd.Config{
			KeyPath: faultKeyPath, Level: level,
			Seed: stats.DeriveSeed(seed, 3), Status: status,
		})
		if err != nil {
			return nil, err
		}
		return host.SSHD{Server: s}, nil
	case "httpd":
		s, err := httpd.Start(k, httpd.Config{
			KeyPath: faultKeyPath, Level: level,
			Seed: stats.DeriveSeed(seed, 3), Status: status,
		})
		if err != nil {
			return nil, err
		}
		return host.HTTPD{Server: s}, nil
	default:
		return nil, fmt.Errorf("unknown server kind %q", kind)
	}
}

// driveFaultWorkload churns the server through a seeded schedule of
// connects, transfers, disconnects, memory pressure and ticks. Errors are
// expected and tolerated; connections that failed to open are simply not
// tracked.
func driveFaultWorkload(k *kernel.Kernel, srv host.Server, seed int64) {
	rng := stats.NewRand(stats.DeriveSeed(seed, 2))
	var open []int
	for step := 0; step < 30; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			if id, err := srv.Connect(); err == nil {
				open = append(open, id)
				_ = srv.Churn(id, 4096)
			}
		case 2:
			if len(open) > 0 {
				i := rng.Intn(len(open))
				_ = srv.Disconnect(open[i])
				open = append(open[:i], open[i+1:]...)
			}
		case 3:
			_, _ = k.MemoryPressure(srv.PID(), 2)
		case 4:
			k.Tick()
		}
	}
	_ = srv.Stop()
	k.Tick()
}

// faultFingerprint renders everything observable about a finished
// scenario: per-site call/injection counters, the final key census, and
// the protection status. Two runs of the same scenario must produce
// byte-identical fingerprints.
func faultFingerprint(in *fault.Injector, rep *core.Report, st *protect.Status) string {
	var b strings.Builder
	for _, site := range fault.Sites() {
		fmt.Fprintf(&b, "%s=%d/%d;", site, in.Injected(site), in.Calls(site))
	}
	fmt.Fprintf(&b, "|total=%d alloc=%d unalloc=%d", rep.Summary.Total,
		rep.Summary.Allocated, rep.Summary.Unallocated)
	for _, part := range []scan.Part{scan.PartD, scan.PartP, scan.PartQ, scan.PartPEM} {
		fmt.Fprintf(&b, " %s=%d", part, rep.Summary.ByPart[part])
	}
	fmt.Fprintf(&b, " swap=%d unlocked=%d", rep.SwapHits, rep.UnlockedKeyCopies)
	fmt.Fprintf(&b, "|%s|%s", st.Summary(), strings.Join(rep.Violations, "; "))
	return b.String()
}

// TestFaultMatrix sweeps 72 seeded plans — both servers × six protection
// levels × six seeds each — and checks the three matrix properties on
// every cell.
func TestFaultMatrix(t *testing.T) {
	totalInjected := 0
	for ki, kind := range []string{"sshd", "httpd"} {
		for li, level := range matrixLevels {
			for i := 0; i < 6; i++ {
				seed := int64(ki*1000 + li*100 + i)
				name := fmt.Sprintf("%s/%s/seed%d", kind, level, seed)
				t.Run(name, func(t *testing.T) {
					out := runFaultScenario(kind, level, seed)
					totalInjected += out.injected
					if out.setupErr != nil {
						t.Fatalf("machine setup failed outside the faulted surface: %v", out.setupErr)
					}
					if out.startErr != nil && !out.refused {
						t.Errorf("start failed (%v) but the status was not refused: silent fail-open", out.startErr)
					}
					if out.allocErr != nil {
						t.Errorf("allocator inconsistent after faults: %v", out.allocErr)
					}
					if out.vmErr != nil {
						t.Errorf("vm inconsistent after faults: %v", out.vmErr)
					}
					if len(out.violations) > 0 {
						t.Errorf("false security: effective-level audit failed:\n  %s",
							strings.Join(out.violations, "\n  "))
					}
				})
			}
		}
	}
	// A sweep that injected nothing proves nothing: catch a plan or
	// wiring regression that silently turned the injector off.
	if totalInjected == 0 {
		t.Error("the whole matrix ran without a single injected fault")
	}
}

// TestFaultMatrixDeterminism re-runs one scenario per (server, level)
// pair and requires byte-identical fingerprints: injection decisions are
// pure functions of (seed, site, ordinal), so nothing — map iteration,
// scheduling, allocator state — may leak into the outcome.
func TestFaultMatrixDeterminism(t *testing.T) {
	for ki, kind := range []string{"sshd", "httpd"} {
		for li, level := range matrixLevels {
			seed := int64(ki*1000 + li*100)
			name := fmt.Sprintf("%s/%s", kind, level)
			t.Run(name, func(t *testing.T) {
				a := runFaultScenario(kind, level, seed)
				b := runFaultScenario(kind, level, seed)
				if a.setupErr != nil || b.setupErr != nil {
					t.Fatalf("setup: %v / %v", a.setupErr, b.setupErr)
				}
				if a.fingerprint != b.fingerprint {
					t.Fatalf("scenario is not deterministic:\n run 1: %s\n run 2: %s",
						a.fingerprint, b.fingerprint)
				}
			})
		}
	}
}

// TestNoFalseSecurityMlockDenied is half of the PR's acceptance
// demonstration. Before fail-closed semantics, a denied mlock left the
// server running with its "protected" key on an unpinnable page while the
// run reported the integrated level; the counterfactual machine below
// reconstructs that state and shows the audit violation it hides. With
// fail-closed semantics the state is unreachable: the same injected
// denial now scrubs the key and refuses the start.
func TestNoFalseSecurityMlockDenied(t *testing.T) {
	boot := func(plan *fault.Plan) (*kernel.Kernel, []scan.Pattern, *protect.Status, *sshd.Server, error) {
		k, err := kernel.New(kernel.Config{
			MemPages: 768, SwapPages: 16,
			DeallocPolicy: protect.LevelIntegrated.KernelPolicy(),
			FaultPlan:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(42, 1)), 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.FS().WriteFile(faultKeyPath, key.MarshalPEM()); err != nil {
			t.Fatal(err)
		}
		status := protect.NewStatus(protect.LevelIntegrated)
		s, err := sshd.Start(k, sshd.Config{
			KeyPath: faultKeyPath, Level: protect.LevelIntegrated,
			Seed: 7, Status: status,
		})
		return k, scan.PatternsFor(key), status, s, err
	}

	// The counterfactual: a clean start, then the key page's pin silently
	// lost — byte-for-byte the machine a swallowed mlock error used to
	// leave behind. The run's (configured-level) report claims integrated
	// protection; the scanner sees key copies on unlocked, swappable
	// pages.
	k, patterns, _, s, err := boot(&fault.Plan{Seed: 42})
	if err != nil {
		t.Fatalf("clean start: %v", err)
	}
	unpinned := 0
	for _, m := range scan.New(k, patterns).Scan() {
		if m.Allocated && m.Part != scan.PartPEM {
			k.Mem().Frame(m.Addr.Page()).Locked = false
			unpinned++
		}
	}
	if unpinned == 0 {
		t.Fatal("counterfactual setup: no allocated key copies to unpin")
	}
	rep := core.New(k, protect.LevelIntegrated).Audit(patterns)
	if rep.OK() || rep.UnlockedKeyCopies == 0 {
		t.Fatalf("counterfactual machine should fail the integrated audit with unlocked key copies; got %+v", rep)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("counterfactual stop: %v", err)
	}

	// The fail-closed world: the same denial, injected. Start refuses,
	// the key is scrubbed, and the honest (effective-level) claim — none
	// — is one the scanner verifies.
	k2, patterns2, status2, _, err := boot(&fault.Plan{
		Seed:  42,
		Rules: map[fault.Site]fault.Rule{fault.SiteMlock: {Nth: []uint64{1}}},
	})
	if err == nil {
		t.Fatal("start under injected mlock denial should refuse")
	}
	if !errors.Is(err, vm.ErrMlockDenied) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("refusal should wrap both the domain and the injection error, got %v", err)
	}
	if refused, _ := status2.Refused(); !refused {
		t.Fatal("status must record the refusal")
	}
	if eff := status2.Effective(); eff != protect.LevelNone {
		t.Fatalf("a refused run claims no protection, got %s", eff)
	}
	for _, m := range scan.New(k2, patterns2).Scan() {
		if m.Allocated && m.Part != scan.PartPEM {
			t.Fatalf("refused start left a scannable %s copy at %#x: scrub-and-refuse failed", m.Part, m.Addr)
		}
	}
	if rep := core.NewWithStatus(k2, status2).AuditEffective(patterns2); !rep.OK() {
		t.Fatalf("effective-level audit must pass on a refused run: %v", rep.Violations)
	}
}

// TestNoFalseSecurityZeroOnFreeStop is the other half of the acceptance
// demonstration, for the degrade path. An injected zero-on-free failure
// during server teardown strands the master's key page — allocated,
// intact, scannable long after the server is gone. The configured-level
// audit is blind to it (the stranded page is still single-copy and
// pinned, so every integrated guarantee nominally checks out): before
// this PR that machine reported full integrated protection while d, p
// and q sat in memory indefinitely. The status record is what catches
// it — the teardown error degrades copy-minimization, the run's
// effective claim drops to the kernel level, and that honest claim is
// one the scanner verifies.
func TestNoFalseSecurityZeroOnFreeStop(t *testing.T) {
	// boot runs the whole scenario up to — but not including — Stop, so
	// the caller can read the injector's counters either side of the
	// teardown.
	boot := func(plan *fault.Plan) (*kernel.Kernel, []scan.Pattern, *sshd.Server) {
		k, err := kernel.New(kernel.Config{
			MemPages:      768,
			DeallocPolicy: protect.LevelIntegrated.KernelPolicy(),
			FaultPlan:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(99, 1)), 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.FS().WriteFile(faultKeyPath, key.MarshalPEM()); err != nil {
			t.Fatal(err)
		}
		s, err := sshd.Start(k, sshd.Config{
			KeyPath: faultKeyPath, Level: protect.LevelIntegrated, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			id, err := s.Connect()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Transfer(id, 4096); err != nil {
				t.Fatal(err)
			}
			if err := s.Disconnect(id); err != nil {
				t.Fatal(err)
			}
		}
		return k, scan.PatternsFor(key), s
	}

	// Calibration pass: an armed injector with no rules counts the
	// zero-on-free calls, bracketing the ordinals Stop's teardown uses.
	kc, _, sc := boot(&fault.Plan{Seed: 99})
	pre := kc.Injector().Calls(fault.SiteZeroOnFree)
	if err := sc.Stop(); err != nil {
		t.Fatalf("calibration stop: %v", err)
	}
	post := kc.Injector().Calls(fault.SiteZeroOnFree)
	if post <= pre {
		t.Fatal("calibration saw no zero-on-free calls during teardown")
	}
	if eff := sc.Status().Effective(); eff != protect.LevelIntegrated {
		t.Fatalf("calibration run should stay intact, got %s", eff)
	}

	// Demonstration pass: replay the identical schedule, scripting a
	// failure for exactly the teardown's zeroing window — the master key
	// page's zero is among those calls.
	var nth []uint64
	for n := pre + 1; n <= post; n++ {
		nth = append(nth, n)
	}
	k, patterns, s := boot(&fault.Plan{
		Seed:  99,
		Rules: map[fault.Site]fault.Rule{fault.SiteZeroOnFree: {Nth: nth}},
	})
	stopErr := s.Stop()
	if stopErr == nil {
		t.Fatal("stop should report the zeroing failures")
	}
	if !errors.Is(stopErr, fault.ErrInjected) {
		t.Fatalf("stop error should wrap the injected failure, got %v", stopErr)
	}

	sum := scan.Summarize(scan.New(k, patterns).Scan())
	if sum.Allocated == 0 {
		t.Fatal("demonstration needs the key to have outlived the server in allocated memory")
	}
	if sum.Unallocated != 0 {
		t.Fatalf("fail-closed zeroing must leak pages, never contents: %d unallocated copies", sum.Unallocated)
	}
	// The blind spot: the configured-level report still claims every
	// integrated guarantee holds.
	if rep := core.New(k, protect.LevelIntegrated).Audit(patterns); !rep.OK() {
		t.Fatalf("expected the configured-level audit to be blind to the stranded key page, got %v", rep.Violations)
	}
	// The fix: the run can no longer claim integrated. The degradation is
	// recorded, the effective level drops, and the downgraded claim is
	// scanner-verified.
	status := s.Status()
	if _, ok := status.Degraded(protect.GuaranteeCopyMinimized); !ok {
		t.Fatal("teardown failure must degrade copy-minimization")
	}
	if eff := status.Effective(); eff == protect.LevelIntegrated {
		t.Fatal("run still claims integrated protection after the teardown failure")
	} else if eff != protect.LevelKernel {
		t.Fatalf("zeroing-structure intact, so the honest claim is kernel; got %s", eff)
	}
	if rep := core.NewWithStatus(k, status).AuditEffective(patterns); !rep.OK() {
		t.Fatalf("effective-level audit must pass: %v", rep.Violations)
	}
	if err := k.Alloc().CheckConsistency(); err != nil {
		t.Fatalf("allocator inconsistent: %v", err)
	}
	if err := k.VM().CheckConsistency(); err != nil {
		t.Fatalf("vm inconsistent: %v", err)
	}
}

// TestNoFalseSecuritySealFaults extends the acceptance demonstration to
// the two sites the sealed level adds. A failed unseal is a transient
// refusal: the handshake errors, the region stays intact and sealed, the
// next handshake succeeds, and nothing degrades. A failed reseal is
// fail-closed destruction: the plaintext is scrubbed before the error
// propagates (pages may leak, contents never do), the sealed-at-rest
// guarantee degrades, the run's honest claim drops to integrated, and
// that downgraded claim is scanner-verified. The same calibration idiom
// as the zero-on-free test brackets one handshake's window ordinals.
func TestNoFalseSecuritySealFaults(t *testing.T) {
	boot := func(plan *fault.Plan) (*kernel.Kernel, []scan.Pattern, *sshd.Server) {
		k, err := kernel.New(kernel.Config{
			MemPages:      768,
			DeallocPolicy: protect.LevelSealed.KernelPolicy(),
			FaultPlan:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(2007, 1)), 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.FS().WriteFile(faultKeyPath, key.MarshalPEM()); err != nil {
			t.Fatal(err)
		}
		s, err := sshd.Start(k, sshd.Config{
			KeyPath: faultKeyPath, Level: protect.LevelSealed, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return k, scan.PatternsFor(key), s
	}

	// Calibration pass: an armed injector with no rules counts the window
	// consultations, bracketing the ordinals one handshake uses.
	kc, patternsC, sc := boot(&fault.Plan{Seed: 2007})
	preU := kc.Injector().Calls(fault.SiteUnseal)
	preS := kc.Injector().Calls(fault.SiteSeal)
	if _, err := sc.Connect(); err != nil {
		t.Fatalf("calibration connect: %v", err)
	}
	postU := kc.Injector().Calls(fault.SiteUnseal)
	postS := kc.Injector().Calls(fault.SiteSeal)
	if postU <= preU || postS <= preS {
		t.Fatalf("calibration saw no seal window during the handshake (unseal %d→%d, reseal %d→%d)",
			preU, postU, preS, postS)
	}
	if eff := sc.Status().Effective(); eff != protect.LevelSealed {
		t.Fatalf("calibration run should stay sealed, got %s", eff)
	}
	if sum := scan.Summarize(scan.New(kc, patternsC).Scan()); sum.Total != 0 {
		t.Fatalf("sealed steady state should expose zero copies, scanner found %d", sum.Total)
	}
	window := func(pre, post uint64) (nth []uint64) {
		for n := pre + 1; n <= post; n++ {
			nth = append(nth, n)
		}
		return nth
	}

	t.Run("unseal-transient", func(t *testing.T) {
		k, patterns, s := boot(&fault.Plan{
			Seed:  2007,
			Rules: map[fault.Site]fault.Rule{fault.SiteUnseal: {Nth: window(preU, postU)}},
		})
		if _, err := s.Connect(); err == nil {
			t.Fatal("connect should fail while the unseal is denied")
		} else if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, seal.ErrUnseal) {
			t.Fatalf("refusal should wrap the injection and the unseal error, got %v", err)
		}
		if _, ok := s.Status().Degraded(protect.GuaranteeSealedAtRest); ok {
			t.Fatal("a transient unseal refusal must not degrade the sealed guarantee")
		}
		if eff := s.Status().Effective(); eff != protect.LevelSealed {
			t.Fatalf("region intact, so the claim stays sealed; got %s", eff)
		}
		// The window never opened: no plaintext existed at any point.
		if sum := scan.Summarize(scan.New(k, patterns).Scan()); sum.Total != 0 {
			t.Fatalf("refused unseal left %d scannable copies", sum.Total)
		}
		// The fault was transient: the next handshake succeeds as normal.
		if _, err := s.Connect(); err != nil {
			t.Fatalf("connect after the transient refusal: %v", err)
		}
		if rep := core.NewWithStatus(k, s.Status()).AuditEffective(patterns); !rep.OK() {
			t.Fatalf("effective-level audit must pass: %v", rep.Violations)
		}
	})

	t.Run("reseal-destroys", func(t *testing.T) {
		k, patterns, s := boot(&fault.Plan{
			Seed:  2007,
			Rules: map[fault.Site]fault.Rule{fault.SiteSeal: {Nth: window(preS, postS)}},
		})
		_, connErr := s.Connect()
		if connErr == nil {
			t.Fatal("connect should fail when the reseal fails")
		}
		if !errors.Is(connErr, fault.ErrInjected) || !errors.Is(connErr, seal.ErrReseal) {
			t.Fatalf("failure should wrap the injection and the reseal error, got %v", connErr)
		}
		// Fail closed: destruction scrubbed the plaintext before the error
		// propagated — the fault leaks pages, never contents.
		if sum := scan.Summarize(scan.New(k, patterns).Scan()); sum.Total != 0 {
			t.Fatalf("destroyed seal left %d scannable copies: fail-open reseal", sum.Total)
		}
		status := s.Status()
		if _, ok := status.Degraded(protect.GuaranteeSealedAtRest); !ok {
			t.Fatal("a destroyed region must degrade the sealed-at-rest guarantee")
		}
		if eff := status.Effective(); eff != protect.LevelIntegrated {
			t.Fatalf("every integrated guarantee still holds, so the honest claim is integrated; got %s", eff)
		}
		// Refusal, not plaintext: the key is gone for good.
		if _, err := s.Connect(); err == nil {
			t.Fatal("a destroyed key must refuse further handshakes")
		} else if !errors.Is(err, seal.ErrDestroyed) {
			t.Fatalf("the refusal should name the destroyed region, got %v", err)
		}
		if rep := core.NewWithStatus(k, status).AuditEffective(patterns); !rep.OK() {
			t.Fatalf("effective-level audit must pass on the degraded run: %v", rep.Violations)
		}
		if err := k.Alloc().CheckConsistency(); err != nil {
			t.Fatalf("allocator inconsistent: %v", err)
		}
		if err := k.VM().CheckConsistency(); err != nil {
			t.Fatalf("vm inconsistent: %v", err)
		}
	})
}
