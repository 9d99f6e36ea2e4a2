package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"memshield/internal/core"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/vm"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

const testKeyPath = "/etc/keys/supervised.key"

// testRig boots a machine with the given plan and a provisioned anchor,
// ready for a supervisor.
func testRig(t *testing.T, level protect.Level, plan *fault.Plan) (*kernel.Kernel, *rsakey.PrivateKey, *hsm.Module, int) {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		MemPages: 768, SwapPages: 16,
		DeallocPolicy: level.KernelPolicy(),
		FaultPlan:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(7, 1)), 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FS().WriteFile(testKeyPath, key.MarshalPEM()); err != nil {
		t.Fatal(err)
	}
	anchor := hsm.New()
	slot, err := anchor.Import(key)
	if err != nil {
		t.Fatal(err)
	}
	return k, key, anchor, slot
}

func newSupervisor(k *kernel.Kernel, kind host.Kind, level protect.Level, anchor *hsm.Module, slot int) *Supervisor {
	return New(k, Config{
		Kind: kind, KeyPath: testKeyPath, Level: level,
		Seed: stats.DeriveSeed(7, 3), Policy: DefaultPolicy(11),
		Anchor: anchor, AnchorSlot: slot,
	})
}

// TestConnectRetriesTransientUnseal scripts a one-shot unseal refusal:
// the supervised Connect retries after a seeded backoff and succeeds,
// the clock advanced by the backoff, and nothing degrades.
func TestConnectRetriesTransientUnseal(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteUnseal: {Nth: []uint64{1}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelSealed, plan)
	sup := newSupervisor(k, host.KindSSHD, protect.LevelSealed, anchor, slot)
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	before := k.Clock()
	id, err := sup.Connect()
	if err != nil {
		t.Fatalf("supervised connect should recover from a transient unseal refusal: %v", err)
	}
	if id == 0 {
		t.Fatal("recovered connect returned no connection ID")
	}
	c := sup.Counters()
	if c.Retries != 1 || c.Recoveries != 1 {
		t.Fatalf("counters = %+v, want exactly one retry and one recovery", c)
	}
	wantWait := sup.policy.BackoffTicks(OpConnect, 1)
	if got := int(k.Clock() - before); got < wantWait {
		t.Fatalf("clock advanced %d ticks, want at least the backoff %d", got, wantWait)
	}
	if c.BackoffTicks != wantWait {
		t.Fatalf("BackoffTicks = %d, want %d", c.BackoffTicks, wantWait)
	}
	if _, ok := sup.Status().Degraded(protect.GuaranteeSealedAtRest); ok {
		t.Fatal("a recovered transient refusal must not degrade the sealed guarantee")
	}
	if eff := sup.Status().Effective(); eff != protect.LevelSealed {
		t.Fatalf("effective %s, want sealed", eff)
	}
	if rep := core.NewWithStatus(k, sup.Status()).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestConnectExhaustsBudget arms a permanent unseal denial: the budget is
// spent, the typed exhaustion error wraps both the domain sentinel and
// the injection marker, and the run degrades exactly as an unsupervised
// first failure would — the region is intact, so the claim stays sealed.
func TestConnectExhaustsBudget(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteUnseal: {Prob: 1},
	}}
	k, _, anchor, slot := testRig(t, protect.LevelSealed, plan)
	sup := newSupervisor(k, host.KindSSHD, protect.LevelSealed, anchor, slot)
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_, err := sup.Connect()
	if err == nil {
		t.Fatal("connect should exhaust its budget under a permanent unseal denial")
	}
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, seal.ErrUnseal) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("exhaustion must wrap the typed error, the domain sentinel and the injection marker: %v", err)
	}
	c := sup.Counters()
	budget := sup.policy.budget(OpConnect)
	if c.Exhaustions != 1 || c.Retries != budget-1 {
		t.Fatalf("counters = %+v, want %d retries and one exhaustion", c, budget-1)
	}
	// Transient refusals leave the region sealed and intact: the claim
	// does not drop, exactly like a single unsupervised refusal.
	if eff := sup.Status().Effective(); eff != protect.LevelSealed {
		t.Fatalf("effective %s, want sealed", eff)
	}
	if !sup.Running() {
		t.Fatal("an exhausted operation must not kill the server")
	}
}

// TestReprovisionAfterSealDestroy scripts the fail-closed destroy: the
// first reseal fails, the supervisor re-provisions from the anchor under
// epoch 1, restarts the server, the retried connect succeeds against the
// new generation, and the outage is a closed window — the run claims
// sealed again, the audit agrees, and the history names the outage.
func TestReprovisionAfterSealDestroy(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteSeal: {Nth: []uint64{1}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelSealed, plan)
	var events []Event
	sup := New(k, Config{
		Kind: host.KindSSHD, KeyPath: testKeyPath, Level: protect.LevelSealed,
		Seed: stats.DeriveSeed(7, 3), Policy: DefaultPolicy(11),
		Anchor: anchor, AnchorSlot: slot,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	gen1 := sup.Generation()
	id, err := sup.Connect()
	if err != nil {
		t.Fatalf("supervised connect should survive the destroy via re-provisioning: %v", err)
	}
	if sup.Generation() != gen1+1 {
		t.Fatalf("generation %d, want a restart (%d)", sup.Generation(), gen1+1)
	}
	if sup.Epoch() != 1 {
		t.Fatalf("epoch %d, want 1", sup.Epoch())
	}
	c := sup.Counters()
	if c.Reprovisions != 1 || c.Restarts != 1 {
		t.Fatalf("counters = %+v, want one reprovision and one restart", c)
	}
	// The window closed: the degradation moved into history and the run
	// claims sealed again — with the outage on the record.
	st := sup.Status()
	if _, ok := st.Degraded(protect.GuaranteeSealedAtRest); ok {
		t.Fatal("repaired guarantee still reads as degraded")
	}
	if eff := st.Effective(); eff != protect.LevelSealed {
		t.Fatalf("effective %s, want sealed after re-provision", eff)
	}
	ws := st.Windows()
	if len(ws) != 1 || ws[0].Guarantee != protect.GuaranteeSealedAtRest {
		t.Fatalf("windows = %+v, want one sealed-at-rest window", ws)
	}
	// The new generation serves: the retried connect's ID belongs to it.
	if err := sup.Churn(id, 4096); err != nil {
		t.Fatalf("churn on the new generation's connection: %v", err)
	}
	// No plaintext at rest: the audit at the sealed claim is clean, and a
	// raw scan finds zero copies (the old region was scrubbed, the new
	// one is ciphertext).
	if rep := core.NewWithStatus(k, st).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit after re-provision: %v", rep.Violations)
	}
	if sum := scan.Summarize(scan.New(k, scan.PatternsFor(key)).Scan()); sum.Total != 0 {
		t.Fatalf("re-provisioned steady state should expose zero copies, scanner found %d", sum.Total)
	}
	// The event stream names the flow in order.
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"reprovision", "restarted", "reprovisioned", "recovered"}
	found := 0
	for _, k := range kinds {
		if found < len(want) && k == want[found] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("event stream %v missing the re-provision sequence %v", kinds, want)
	}
}

// TestDestroyWithoutAnchorStaysPermanent pins the fallback: without an
// escrow anchor the supervisor cannot invent key material, so the destroy
// degrades the run exactly as an unsupervised one — honest downgrade to
// integrated, no restart, no window.
func TestDestroyWithoutAnchorStaysPermanent(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteSeal: {Nth: []uint64{1}},
	}}
	k, key, _, _ := testRig(t, protect.LevelSealed, plan)
	sup := New(k, Config{
		Kind: host.KindSSHD, KeyPath: testKeyPath, Level: protect.LevelSealed,
		Seed: stats.DeriveSeed(7, 3), Policy: DefaultPolicy(11),
	})
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	_, err := sup.Connect()
	if err == nil {
		t.Fatal("destroy without an anchor must surface the failure")
	}
	if !errors.Is(err, seal.ErrReseal) {
		t.Fatalf("error should name the reseal failure: %v", err)
	}
	st := sup.Status()
	if _, ok := st.Degraded(protect.GuaranteeSealedAtRest); !ok {
		t.Fatal("the destroy must degrade sealed-at-rest")
	}
	if eff := st.Effective(); eff != protect.LevelIntegrated {
		t.Fatalf("effective %s, want integrated", eff)
	}
	if c := sup.Counters(); c.Reprovisions != 0 || c.Restarts != 0 {
		t.Fatalf("counters = %+v, want no reprovision without an anchor", c)
	}
	if rep := core.NewWithStatus(k, st).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit on the degraded run: %v", rep.Violations)
	}
}

// TestStartRetriesTransientRefusal scripts a one-shot mlock denial at an
// integrated-level boot: the first attempt refuses (scrub-and-refuse),
// the retry succeeds, and the refusal becomes a closed setup window — the
// run serves at its configured level with the outage on the record.
func TestStartRetriesTransientRefusal(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteMlock: {Nth: []uint64{1}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelIntegrated, plan)
	sup := newSupervisor(k, host.KindSSHD, protect.LevelIntegrated, anchor, slot)
	if err := sup.Start(); err != nil {
		t.Fatalf("supervised start should retry the transient mlock denial: %v", err)
	}
	if refused, _ := sup.Status().Refused(); refused {
		t.Fatal("repaired refusal still reads as refused")
	}
	if eff := sup.Status().Effective(); eff != protect.LevelIntegrated {
		t.Fatalf("effective %s, want integrated", eff)
	}
	ws := sup.Status().Windows()
	if len(ws) != 1 || ws[0].Guarantee != 0 {
		t.Fatalf("windows = %+v, want one setup window", ws)
	}
	if c := sup.Counters(); c.Retries != 1 || c.Recoveries != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if _, err := sup.Connect(); err != nil {
		t.Fatalf("connect after a recovered start: %v", err)
	}
	if rep := core.NewWithStatus(k, sup.Status()).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestStartExhaustionLeavesRefusalStanding arms a permanent mlock denial:
// every boot attempt refuses, the budget spends, and the run ends exactly
// as an unsupervised refusal — claiming nothing, scrubbed, audit-clean.
func TestStartExhaustionLeavesRefusalStanding(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteMlock: {Prob: 1},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelIntegrated, plan)
	sup := newSupervisor(k, host.KindSSHD, protect.LevelIntegrated, anchor, slot)
	err := sup.Start()
	if err == nil {
		t.Fatal("start should exhaust under a permanent mlock denial")
	}
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, vm.ErrMlockDenied) {
		t.Fatalf("exhaustion error: %v", err)
	}
	if refused, _ := sup.Status().Refused(); !refused {
		t.Fatal("the refusal must stand after exhaustion")
	}
	if eff := sup.Status().Effective(); eff != protect.LevelNone {
		t.Fatalf("effective %s, want none", eff)
	}
	if rep := core.NewWithStatus(k, sup.Status()).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit on the refused run: %v", rep.Violations)
	}
	// Steady-state ops refuse fast.
	if _, err := sup.Connect(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("connect on a never-started supervisor: %v", err)
	}
}

// TestHTTPDReprovision runs the destroy→re-provision flow on the Apache
// model too: workers re-delegate to the fresh parent after the restart.
func TestHTTPDReprovision(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteSeal: {Nth: []uint64{1}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelSealed, plan)
	sup := newSupervisor(k, host.KindHTTPD, protect.LevelSealed, anchor, slot)
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	id, err := sup.Connect()
	if err != nil {
		t.Fatalf("supervised httpd connect should survive the destroy: %v", err)
	}
	if c := sup.Counters(); c.Reprovisions != 1 {
		t.Fatalf("counters = %+v, want one reprovision", c)
	}
	if err := sup.Churn(id, 4096); err != nil {
		t.Fatalf("request on the new generation: %v", err)
	}
	if err := sup.Maintain(); err != nil {
		t.Fatalf("maintain on the new generation: %v", err)
	}
	if eff := sup.Status().Effective(); eff != protect.LevelSealed {
		t.Fatalf("effective %s, want sealed", eff)
	}
	if rep := core.NewWithStatus(k, sup.Status()).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit: %v", rep.Violations)
	}
	if err := sup.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestReprovisionBudgetSpends destroys the key once per budget unit and
// then once more: the final destroy exhausts the re-provision budget and
// the run ends degraded-honest, never fail-open.
func TestReprovisionBudgetSpends(t *testing.T) {
	// Budget 1: the second destroy must exhaust.
	policy := DefaultPolicy(11)
	policy.Budget = map[Op]int{OpReprovision: 1, OpConnect: 4}
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteSeal: {Nth: []uint64{1, 2}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelSealed, plan)
	sup := New(k, Config{
		Kind: host.KindSSHD, KeyPath: testKeyPath, Level: protect.LevelSealed,
		Seed: stats.DeriveSeed(7, 3), Policy: policy,
		Anchor: anchor, AnchorSlot: slot,
	})
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// First connect: destroy #1 (reseal call 1) → re-provision #1; the
	// retried handshake's reseal is call 2 → destroy #2 → budget spent.
	_, err := sup.Connect()
	if err == nil {
		t.Fatal("second destroy should exhaust the re-provision budget")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("want ErrRetriesExhausted, got %v", err)
	}
	c := sup.Counters()
	if c.Reprovisions != 1 {
		t.Fatalf("counters = %+v, want exactly the budgeted single reprovision", c)
	}
	st := sup.Status()
	if _, ok := st.Degraded(protect.GuaranteeSealedAtRest); !ok {
		t.Fatal("the unrepaired second destroy must leave sealed-at-rest degraded")
	}
	// History: one closed window (the repaired first destroy) plus the
	// open degradation.
	if ws := st.Windows(); len(ws) != 1 {
		t.Fatalf("windows = %+v", ws)
	}
	if rep := core.NewWithStatus(k, st).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestSupervisorDeterminism replays a faulted supervised run and demands
// identical counters, generations and event streams.
func TestSupervisorDeterminism(t *testing.T) {
	run := func() (Counters, int, int64, []string) {
		plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
			fault.SiteUnseal: {Prob: 0.3},
			fault.SiteSeal:   {Prob: 0.1},
			fault.SiteMalloc: {Prob: 0.01},
		}}
		k, _, anchor, slot := testRig(t, protect.LevelSealed, plan)
		var log []string
		sup := New(k, Config{
			Kind: host.KindSSHD, KeyPath: testKeyPath, Level: protect.LevelSealed,
			Seed: stats.DeriveSeed(7, 3), Policy: DefaultPolicy(11),
			Anchor: anchor, AnchorSlot: slot,
			OnEvent: func(e Event) {
				log = append(log, fmt.Sprintf("%d:%s:%s:%d:%d:%s", e.Tick, e.Kind, e.Op, e.Attempt, e.Wait, e.Detail))
			},
		})
		if err := sup.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		var open []int
		gen := sup.Generation()
		rng := stats.NewRand(stats.DeriveSeed(7, 2))
		for step := 0; step < 40 && sup.Failed() == nil; step++ {
			if g := sup.Generation(); g != gen {
				gen, open = g, nil
			}
			switch rng.Intn(4) {
			case 0, 1:
				if id, err := sup.Connect(); err == nil {
					open = append(open, id)
					_ = sup.Churn(id, 2048)
				}
			case 2:
				if len(open) > 0 {
					_ = sup.Disconnect(open[0])
					open = open[1:]
				}
			case 3:
				k.Tick()
			}
		}
		_ = sup.Stop()
		return sup.Counters(), sup.Generation(), sup.Epoch(), log
	}
	c1, g1, e1, l1 := run()
	c2, g2, e2, l2 := run()
	if c1 != c2 || g1 != g2 || e1 != e2 {
		t.Fatalf("replay diverged: %+v gen=%d epoch=%d vs %+v gen=%d epoch=%d", c1, g1, e1, c2, g2, e2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("event streams differ in length: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("event %d diverged:\n %s\n %s", i, l1[i], l2[i])
		}
	}
	// The scenario must actually exercise recovery to prove anything.
	if c1.Retries == 0 {
		t.Error("determinism scenario never retried; raise the fault odds")
	}
}

// TestReprovisionGateParksAndResumes scripts the fleet arbitration flow:
// a fail-closed destroy under a denying gate parks the supervisor (dead
// generation stopped, degradation window open, steady-state ops refused
// with ErrParked), and ResumeReprovision later completes the recovery
// exactly as an ungated re-provision — new epoch, closed window, sealed
// claim restored.
func TestReprovisionGateParksAndResumes(t *testing.T) {
	plan := &fault.Plan{Seed: 7, Rules: map[fault.Site]fault.Rule{
		fault.SiteSeal: {Nth: []uint64{1}},
	}}
	k, key, anchor, slot := testRig(t, protect.LevelSealed, plan)
	var events []Event
	granted := false
	sup := New(k, Config{
		Kind: host.KindSSHD, KeyPath: testKeyPath, Level: protect.LevelSealed,
		Seed: stats.DeriveSeed(7, 3), Policy: DefaultPolicy(11),
		Anchor: anchor, AnchorSlot: slot,
		OnEvent:         func(e Event) { events = append(events, e) },
		ReprovisionGate: func() bool { return granted },
	})
	if err := sup.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if _, err := sup.Connect(); !errors.Is(err, ErrParked) {
		t.Fatalf("connect under a denying gate should park, got %v", err)
	}
	if sup.Parked() == nil {
		t.Fatal("Parked() should report the pending cause")
	}
	if sup.Running() {
		t.Fatal("a parked supervisor must not report a running server")
	}
	if sup.Failed() != nil {
		t.Fatalf("parking is not death: Failed() = %v", sup.Failed())
	}
	if _, err := sup.Connect(); !errors.Is(err, ErrParked) {
		t.Fatalf("steady-state ops while parked must refuse with ErrParked, got %v", err)
	}
	if sup.Counters().Reprovisions != 0 {
		t.Fatal("parking must not spend the re-provision budget")
	}
	if _, ok := sup.Status().Degraded(protect.GuaranteeSealedAtRest); !ok {
		t.Fatal("the degradation window must stay open while parked")
	}
	// The fleet scheduler grants: the recovery completes from the anchor.
	granted = true
	if err := sup.ResumeReprovision(); err != nil {
		t.Fatalf("resume with a grant: %v", err)
	}
	if sup.Parked() != nil {
		t.Fatal("resume should clear the parked state")
	}
	if !sup.Running() || sup.Epoch() != 1 {
		t.Fatalf("resumed supervisor running=%v epoch=%d, want serving under epoch 1", sup.Running(), sup.Epoch())
	}
	if sup.Counters().Reprovisions != 1 {
		t.Fatalf("counters = %+v, want one reprovision", sup.Counters())
	}
	if err := sup.ResumeReprovision(); err != nil {
		t.Fatalf("resume when not parked must be a no-op, got %v", err)
	}
	id, err := sup.Connect()
	if err != nil {
		t.Fatalf("connect after resume: %v", err)
	}
	if err := sup.Churn(id, 4096); err != nil {
		t.Fatalf("churn after resume: %v", err)
	}
	if eff := sup.Status().Effective(); eff != protect.LevelSealed {
		t.Fatalf("effective %s, want sealed after resumed re-provision", eff)
	}
	if ws := sup.Status().Windows(); len(ws) != 1 {
		t.Fatalf("windows = %+v, want the outage recorded as one closed window", ws)
	}
	if rep := core.NewWithStatus(k, sup.Status()).AuditEffective(scan.PatternsFor(key)); !rep.OK() {
		t.Fatalf("audit after resumed re-provision: %v", rep.Violations)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"parked", "reprovision", "restarted", "reprovisioned"}
	found := 0
	for _, k := range kinds {
		if found < len(want) && k == want[found] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("event stream %v missing the park/resume sequence %v", kinds, want)
	}
}

// TestSupervisionIsInert pins that supervision, and an armed fault plan
// with no rules, change nothing while no fault fires. One seeded op
// sequence runs through a bare server with no plan, and again supervised,
// supervised under an empty plan, and bare under an empty plan. Each
// must end with the bare run's physical memory, byte for byte, and its
// allocator counters.
func TestSupervisionIsInert(t *testing.T) {
	variants := []struct {
		name       string
		supervised bool
		plan       *fault.Plan
	}{
		{"supervised", true, nil},
		{"supervised with an empty plan", true, &fault.Plan{Seed: 5}},
		{"bare with an empty plan", false, &fault.Plan{Seed: 5}},
	}
	for _, kind := range []host.Kind{host.KindSSHD, host.KindHTTPD} {
		for _, level := range []protect.Level{protect.LevelNone, protect.LevelIntegrated, protect.LevelSealed} {
			t.Run(string(kind)+"/"+level.String(), func(t *testing.T) {
				wantMem, wantStats := inertRun(t, kind, level, false, nil)
				for _, v := range variants {
					gotMem, gotStats := inertRun(t, kind, level, v.supervised, v.plan)
					if !bytes.Equal(gotMem, wantMem) {
						t.Errorf("%s: physical memory differs from the bare run", v.name)
					}
					if gotStats != wantStats {
						t.Errorf("%s: allocator stats %+v, bare run %+v", v.name, gotStats, wantStats)
					}
				}
			})
		}
	}
}

// inertRun boots a machine, drives the seeded op sequence (connect and
// churn, disconnect, maintain and tick), stops the server and returns
// the machine's physical memory and allocator counters.
func inertRun(t *testing.T, kind host.Kind, level protect.Level, supervised bool, plan *fault.Plan) ([]byte, alloc.Stats) {
	t.Helper()
	k, _, anchor, slot := testRig(t, level, plan)
	var srv host.Server
	switch {
	case supervised:
		sup := newSupervisor(k, kind, level, anchor, slot)
		if err := sup.Start(); err != nil {
			t.Fatal(err)
		}
		srv = sup
	case kind == host.KindSSHD:
		s, err := sshd.Start(k, sshd.Config{KeyPath: testKeyPath, Level: level, Seed: stats.DeriveSeed(7, 3)})
		if err != nil {
			t.Fatal(err)
		}
		srv = host.SSHD{Server: s}
	default:
		s, err := httpd.Start(k, httpd.Config{KeyPath: testKeyPath, Level: level, Seed: stats.DeriveSeed(7, 3)})
		if err != nil {
			t.Fatal(err)
		}
		srv = host.HTTPD{Server: s}
	}
	rng := stats.NewRand(13)
	var open []int
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(3); {
		case len(open) == 0 || op == 0 && len(open) < 8:
			id, err := srv.Connect()
			if err != nil {
				t.Fatalf("step %d connect: %v", step, err)
			}
			if err := srv.Churn(id, 1+rng.Intn(3*4096)); err != nil {
				t.Fatalf("step %d churn: %v", step, err)
			}
			open = append(open, id)
		case op <= 1:
			i := rng.Intn(len(open))
			if err := srv.Disconnect(open[i]); err != nil {
				t.Fatalf("step %d disconnect: %v", step, err)
			}
			open = append(open[:i], open[i+1:]...)
		default:
			if err := srv.Maintain(); err != nil {
				t.Fatalf("step %d maintain: %v", step, err)
			}
			k.Tick()
		}
	}
	if err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	image, err := k.Mem().Read(0, k.Mem().Size())
	if err != nil {
		t.Fatal(err)
	}
	return image, k.Alloc().Stats()
}
