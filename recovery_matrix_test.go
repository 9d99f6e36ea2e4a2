// Recovery-matrix harness: re-runs the fault matrix's 72 seeded plans
// with the servers under supervision (internal/supervise) and checks the
// recovery contract on every cell:
//
//  1. Honest endings only — every scenario finishes in exactly one of
//     three states: recovered (server running at its claimed level),
//     degraded-honest (running with the lost guarantees on the status
//     record), or refused (claiming nothing). In all three the
//     effective-level audit is clean: supervision never buys uptime by
//     weakening the no-false-security property.
//  2. Accounting consistency — recovery counters are internally coherent
//     (a recovery implies at least one retry; a restart implies a
//     re-provision) and the sweep as a whole actually exercises them.
//  3. Determinism — a scenario's full fingerprint (injection counters,
//     recovery counters, census, status) replays byte-identically.
//
// TestInjectedWrapChains backs the retry taxonomy: it drives every fault
// site through its real call path and proves the surfaced error wraps
// BOTH fault.ErrInjected and the site's domain sentinel, so
// supervise.Classify can never mistake a permanent fault for a transient
// one because a wrap chain dropped the sentinel.
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
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
	"memshield/internal/kernel/pagecache"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

// TestInjectedWrapChains drives each fault site through a real kernel or
// server operation with the site armed at certainty, and asserts the
// error that reaches the caller wraps both targets — the injection
// marker (so tests can tell injected from organic) and the domain
// sentinel (so the supervisor classifies by failure meaning, not by
// injection provenance) — and that supervise.Classify agrees with the
// site's static taxonomy.
func TestInjectedWrapChains(t *testing.T) {
	const keyPath = "/etc/keys/chain.key"
	// boot builds a machine with the given sites armed and the key
	// installed. The cases below arm only sites WriteFile never consults
	// (or use Nth ordinals past it), so the install always lands.
	type rigged struct {
		k   *kernel.Kernel
		key *rsakey.PrivateKey
	}
	boot := func(t *testing.T, level protect.Level, rules map[fault.Site]fault.Rule) rigged {
		t.Helper()
		plan := &fault.Plan{Seed: 31, Rules: rules}
		k, err := kernel.New(kernel.Config{
			MemPages: 768, SwapPages: 16,
			DeallocPolicy: level.KernelPolicy(),
			FaultPlan:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(31, 1)), 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.FS().WriteFile(keyPath, key.MarshalPEM()); err != nil {
			t.Fatalf("key install hit the armed site; use an Nth rule: %v", err)
		}
		return rigged{k, key}
	}
	startSSH := func(t *testing.T, r rigged, level protect.Level) (*sshd.Server, error) {
		t.Helper()
		return sshd.Start(r.k, sshd.Config{KeyPath: keyPath, Level: level, Seed: 7})
	}

	cases := []struct {
		site    fault.Site
		domain  error
		provoke func(t *testing.T) error
	}{
		{fault.SiteAllocPages, alloc.ErrOutOfMemory, func(t *testing.T) error {
			// The filesystem stores files outside the page allocator, so
			// the key install lands; loading the key back populates the
			// page cache, whose first AllocPages call fails.
			r := boot(t, protect.LevelNone, map[fault.Site]fault.Rule{
				fault.SiteAllocPages: {Prob: 1},
			})
			_, err := startSSH(t, r, protect.LevelNone)
			return err
		}},
		{fault.SiteZeroOnFree, alloc.ErrZeroOnFree, func(t *testing.T) error {
			r := boot(t, protect.LevelIntegrated, map[fault.Site]fault.Rule{
				fault.SiteZeroOnFree: {Prob: 1},
			})
			s, err := startSSH(t, r, protect.LevelIntegrated)
			if err != nil {
				return err // connection teardown isn't the only zeroing path
			}
			id, err := s.Connect()
			if err != nil {
				return err
			}
			if err := s.Disconnect(id); err != nil {
				return err
			}
			return s.Stop()
		}},
		{fault.SiteMlock, vm.ErrMlockDenied, func(t *testing.T) error {
			r := boot(t, protect.LevelIntegrated, map[fault.Site]fault.Rule{
				fault.SiteMlock: {Prob: 1},
			})
			_, err := startSSH(t, r, protect.LevelIntegrated)
			return err
		}},
		{fault.SiteSwapStore, vm.ErrSwapIO, func(t *testing.T) error {
			// SwapOutVictims absorbs per-victim store errors by design
			// (the victim stays mapped), so drive the direct swap-out
			// surface: an anonymous dirty page of a spawned process.
			r := boot(t, protect.LevelNone, map[fault.Site]fault.Rule{
				fault.SiteSwapStore: {Prob: 1},
			})
			pid, err := r.k.Spawn(0, "victim")
			if err != nil {
				t.Fatal(err)
			}
			addr, err := r.k.VM().MapAnon(pid, 1, "heap")
			if err != nil {
				t.Fatal(err)
			}
			if err := r.k.VM().Write(pid, addr, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			return r.k.VM().SwapOut(pid, addr)
		}},
		{fault.SiteEvict, pagecache.ErrEvictIO, func(t *testing.T) error {
			r := boot(t, protect.LevelIntegrated, map[fault.Site]fault.Rule{
				fault.SiteEvict: {Prob: 1},
			})
			_, err := startSSH(t, r, protect.LevelIntegrated)
			return err
		}},
		{fault.SiteFSRead, fs.ErrIO, func(t *testing.T) error {
			r := boot(t, protect.LevelNone, map[fault.Site]fault.Rule{
				fault.SiteFSRead: {Prob: 1},
			})
			_, err := r.k.ReadFile(keyPath, 0)
			return err
		}},
		{fault.SiteMalloc, libc.ErrNoMem, func(t *testing.T) error {
			r := boot(t, protect.LevelNone, map[fault.Site]fault.Rule{
				fault.SiteMalloc: {Prob: 1},
			})
			s, err := startSSH(t, r, protect.LevelNone)
			if err != nil {
				return err
			}
			_, err = s.Connect()
			return err
		}},
		{fault.SiteUnseal, seal.ErrUnseal, func(t *testing.T) error {
			r := boot(t, protect.LevelSealed, map[fault.Site]fault.Rule{
				fault.SiteUnseal: {Prob: 1},
			})
			s, err := startSSH(t, r, protect.LevelSealed)
			if err != nil {
				return err
			}
			_, err = s.Connect()
			return err
		}},
		{fault.SiteSeal, seal.ErrReseal, func(t *testing.T) error {
			r := boot(t, protect.LevelSealed, map[fault.Site]fault.Rule{
				fault.SiteSeal: {Prob: 1},
			})
			s, err := startSSH(t, r, protect.LevelSealed)
			if err != nil {
				return err
			}
			_, err = s.Connect()
			return err
		}},
	}

	covered := make(map[fault.Site]bool)
	for _, tc := range cases {
		covered[tc.site] = true
		t.Run(tc.site.String(), func(t *testing.T) {
			err := tc.provoke(t)
			if err == nil {
				t.Fatalf("%s armed at certainty produced no error", tc.site)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s: error chain dropped fault.ErrInjected: %v", tc.site, err)
			}
			if !errors.Is(err, tc.domain) {
				t.Errorf("%s: error chain dropped the domain sentinel %v: %v", tc.site, tc.domain, err)
			}
			class := supervise.Classify(err)
			if tc.site.Transient() && class != supervise.ClassTransient {
				t.Errorf("%s: transient site classified %v — a recoverable fault would not be retried", tc.site, class)
			}
			if !tc.site.Transient() && class == supervise.ClassTransient {
				t.Errorf("%s: permanent site classified transient — the supervisor would spin on it", tc.site)
			}
		})
	}
	for _, site := range fault.Sites() {
		if !covered[site] {
			t.Errorf("site %s has no wrap-chain case: extend TestInjectedWrapChains", site)
		}
	}
}

// recoveryOutcome is everything observable about one supervised scenario.
type recoveryOutcome struct {
	setupErr    error
	startErr    error
	refused     bool
	running     bool
	failed      error
	counters    supervise.Counters
	generation  int
	violations  []string
	allocErr    error
	vmErr       error
	fingerprint string
}

// runRecoveryScenario replays the fault matrix's plan for (kind, level,
// seed) with the server under supervision: same machine shape, same
// workload schedule, same fault plan — plus a retry policy and an escrow
// anchor. The workload tolerates per-op failures the way the soak does;
// the contract is about the END state, which the audit must verify.
func runRecoveryScenario(kind string, level protect.Level, seed int64) recoveryOutcome {
	var out recoveryOutcome
	k, err := kernel.New(kernel.Config{
		MemPages:      768,
		SwapPages:     16,
		DeallocPolicy: level.KernelPolicy(),
		FaultPlan:     matrixPlan(seed),
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
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		out.setupErr = err
		return out
	}
	status := protect.NewStatus(level)
	supKind := host.KindSSHD
	if kind == "httpd" {
		supKind = host.KindHTTPD
	}
	sup := supervise.New(k, supervise.Config{
		Kind: supKind, KeyPath: faultKeyPath, Level: level,
		Seed: stats.DeriveSeed(seed, 3), Policy: supervise.DefaultPolicy(stats.DeriveSeed(seed, 5)),
		Anchor: anchor, AnchorSlot: slot, Status: status,
	})
	if err := k.FS().WriteFile(faultKeyPath, key.MarshalPEM()); err != nil {
		status.Refuse(fmt.Sprintf("key install: %v", err))
		out.startErr = err
	} else if err := sup.Start(); err != nil {
		out.startErr = err
	} else {
		// The matrix workload, made outage-tolerant: failed ops are
		// dropped (the supervisor already retried them), and a restart
		// invalidates the open-connection list.
		rng := stats.NewRand(stats.DeriveSeed(seed, 2))
		var open []int
		gen := sup.Generation()
		for step := 0; step < 30 && sup.Failed() == nil && sup.Running(); step++ {
			if g := sup.Generation(); g != gen {
				gen, open = g, nil
			}
			switch rng.Intn(5) {
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
				_, _ = k.MemoryPressure(sup.PID(), 2)
			case 4:
				k.Tick()
			}
		}
		_ = sup.Stop()
		k.Tick()
	}
	out.refused, _ = status.Refused()
	out.running = sup.Running()
	out.failed = sup.Failed()
	out.counters = sup.Counters()
	out.generation = sup.Generation()
	out.allocErr = k.Alloc().CheckConsistency()
	out.vmErr = k.VM().CheckConsistency()
	rep := core.NewWithStatus(k, status).AuditEffective(patterns)
	out.violations = rep.Violations
	out.fingerprint = fmt.Sprintf("%s|gen=%d %+v failed=%v",
		faultFingerprint(k.Injector(), rep, status), out.generation, out.counters, out.failed)
	return out
}

// TestRecoveryMatrix sweeps the fault matrix's 72 plans under
// supervision and checks the recovery contract on every cell.
func TestRecoveryMatrix(t *testing.T) {
	var total supervise.Counters
	for ki, kind := range []string{"sshd", "httpd"} {
		for li, level := range matrixLevels {
			var row struct {
				ran, refused int
				c            supervise.Counters
			}
			for i := 0; i < 6; i++ {
				seed := int64(ki*1000 + li*100 + i)
				name := fmt.Sprintf("%s/%s/seed%d", kind, level, seed)
				t.Run(name, func(t *testing.T) {
					out := runRecoveryScenario(kind, level, seed)
					if out.setupErr != nil {
						t.Fatalf("machine setup failed outside the faulted surface: %v", out.setupErr)
					}
					// Honest endings: a start failure must leave a refusal
					// on the record (never a silent fail-open), and a
					// supervisor death must carry its cause.
					if out.startErr != nil && !out.refused {
						t.Errorf("start failed (%v) but the status was not refused", out.startErr)
					}
					if out.failed != nil && out.refused == false && out.counters.Reprovisions == 0 {
						t.Errorf("supervisor died (%v) with no refusal and no re-provision attempt", out.failed)
					}
					// The load-bearing property: whatever the storm did —
					// recovered, degraded, refused, dead — the level the run
					// CLAIMS is one the scanner verifies.
					if len(out.violations) > 0 {
						t.Errorf("false security under supervision:\n  %s",
							strings.Join(out.violations, "\n  "))
					}
					if out.allocErr != nil {
						t.Errorf("allocator inconsistent: %v", out.allocErr)
					}
					if out.vmErr != nil {
						t.Errorf("vm inconsistent: %v", out.vmErr)
					}
					// Accounting coherence.
					c := out.counters
					if c.Recoveries > c.Retries {
						t.Errorf("recoveries %d exceed retries %d", c.Recoveries, c.Retries)
					}
					if c.Restarts > 0 && c.Reprovisions == 0 && out.failed == nil {
						t.Errorf("restarted %d times with no re-provision and no death", c.Restarts)
					}
					total.Retries += c.Retries
					total.Recoveries += c.Recoveries
					total.Reprovisions += c.Reprovisions
					total.Exhaustions += c.Exhaustions
					if out.refused {
						row.refused++
					} else {
						row.ran++
					}
					row.c.Retries += c.Retries
					row.c.Recoveries += c.Recoveries
					row.c.Reprovisions += c.Reprovisions
					row.c.Exhaustions += c.Exhaustions
				})
			}
			t.Logf("recovery row %s/%s: ran=%d refused=%d retries=%d recoveries=%d reprovisions=%d exhaustions=%d",
				kind, level, row.ran, row.refused,
				row.c.Retries, row.c.Recoveries, row.c.Reprovisions, row.c.Exhaustions)
		}
	}
	// A recovery sweep in which supervision never did anything proves
	// nothing about recovery.
	if total.Retries == 0 || total.Recoveries+total.Reprovisions == 0 {
		t.Errorf("matrix never exercised recovery: totals %+v", total)
	}
	t.Logf("recovery matrix totals: retries=%d recoveries=%d reprovisions=%d exhaustions=%d",
		total.Retries, total.Recoveries, total.Reprovisions, total.Exhaustions)
}

// TestRecoveryMatrixDeterminism re-runs one supervised scenario per
// (server, level) pair and requires byte-identical fingerprints — the
// retry schedule, backoff jitter and re-provision epochs all derive from
// the seed, so supervision must not cost the matrix its replayability.
func TestRecoveryMatrixDeterminism(t *testing.T) {
	for ki, kind := range []string{"sshd", "httpd"} {
		for li, level := range matrixLevels {
			seed := int64(ki*1000 + li*100)
			name := fmt.Sprintf("%s/%s", kind, level)
			t.Run(name, func(t *testing.T) {
				a := runRecoveryScenario(kind, level, seed)
				b := runRecoveryScenario(kind, level, seed)
				if a.setupErr != nil || b.setupErr != nil {
					t.Fatalf("setup: %v / %v", a.setupErr, b.setupErr)
				}
				if a.fingerprint != b.fingerprint {
					t.Fatalf("supervised scenario is not deterministic:\n run 1: %s\n run 2: %s",
						a.fingerprint, b.fingerprint)
				}
			})
		}
	}
}
