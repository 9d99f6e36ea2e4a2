package supervise

import (
	"strings"
	"testing"

	"memshield/internal/host"
	"memshield/internal/protect"
)

// TestStormReplayByteIdentical runs one storm twice from the same seed
// and demands byte-identical event logs and fingerprints: the whole
// chain — fault plan, backoff jitter, workload mix, re-provision epochs —
// derives from the seed, so any divergence is nondeterminism.
func TestStormReplayByteIdentical(t *testing.T) {
	cfg := StormConfig{Kind: host.KindSSHD, Level: protect.LevelSealed, Seed: 42, Steps: 120}
	a, err := RunStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint diverged on replay:\n %s\n %s", a.Fingerprint, b.Fingerprint)
	}
	la, lb := strings.Join(a.Log, "\n"), strings.Join(b.Log, "\n")
	if la != lb {
		for i := range a.Log {
			if i >= len(b.Log) || a.Log[i] != b.Log[i] {
				t.Fatalf("log line %d diverged:\n %s\n %s", i, a.Log[i], b.Log[i])
			}
		}
		t.Fatalf("log lengths diverged: %d vs %d", len(a.Log), len(b.Log))
	}
	if a.Counters != b.Counters || a.Generation != b.Generation || a.Epoch != b.Epoch {
		t.Fatalf("summary diverged: %+v vs %+v", a, b)
	}
}

// TestStormsWorkerCountInvariance runs the same sweep at one worker and
// at four and demands identical results cell by cell: each storm owns
// its machine, so parallelism must be invisible in the output.
func TestStormsWorkerCountInvariance(t *testing.T) {
	var cfgs []StormConfig
	for i := 0; i < 6; i++ {
		kind := host.KindSSHD
		if i%2 == 1 {
			kind = host.KindHTTPD
		}
		cfgs = append(cfgs, StormConfig{
			Kind: kind, Level: protect.LevelSealed, Seed: int64(1000 + i), Steps: 80,
		})
	}
	serial, err := RunStorms(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunStorms(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if serial[i].Fingerprint != parallel[i].Fingerprint {
			t.Errorf("storm %d: fingerprint differs between workers=1 and workers=4:\n %s\n %s",
				i, serial[i].Fingerprint, parallel[i].Fingerprint)
		}
		if strings.Join(serial[i].Log, "\n") != strings.Join(parallel[i].Log, "\n") {
			t.Errorf("storm %d: event log differs between worker counts", i)
		}
	}
}

// TestStormSweepHoldsInvariants sweeps storms across kinds and levels and
// demands: no per-tick invariant ever tripped (audit clean, memory
// bookkeeping consistent, counters monotonic), and the sweep actually
// exercised recovery — a soak that never retries proves nothing.
func TestStormSweepHoldsInvariants(t *testing.T) {
	var cfgs []StormConfig
	levels := []protect.Level{protect.LevelIntegrated, protect.LevelSecureDealloc, protect.LevelSealed}
	for _, kind := range []host.Kind{host.KindSSHD, host.KindHTTPD} {
		for li, level := range levels {
			for i := 0; i < 2; i++ {
				cfgs = append(cfgs, StormConfig{
					Kind: kind, Level: level,
					Seed:  int64(li*100 + i + 3000),
					Steps: 100,
				})
			}
		}
	}
	results, err := RunStorms(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total Counters
	recovered := 0
	for i, r := range results {
		if r.InvariantErr != "" {
			t.Errorf("storm %d (%s/%s seed %d): invariant violated: %s",
				i, cfgs[i].Kind, cfgs[i].Level, cfgs[i].Seed, r.InvariantErr)
		}
		// Every storm ends in exactly one honest state: survived at some
		// effective level, or refused claiming nothing.
		if !r.Survived && !r.Refused && r.Counters.Exhaustions == 0 {
			t.Errorf("storm %d died without a refusal or an exhaustion: %+v", i, r.Counters)
		}
		total.Retries += r.Counters.Retries
		total.BackoffTicks += r.Counters.BackoffTicks
		total.Recoveries += r.Counters.Recoveries
		total.Reprovisions += r.Counters.Reprovisions
		total.Restarts += r.Counters.Restarts
		total.Exhaustions += r.Counters.Exhaustions
		if r.Counters.Recoveries > 0 || r.Counters.Reprovisions > 0 {
			recovered++
		}
	}
	if total.Retries == 0 {
		t.Error("sweep never retried: the storm plan is too tame to test recovery")
	}
	if recovered == 0 {
		t.Error("no storm in the sweep ever recovered or re-provisioned")
	}
	t.Logf("sweep: %d storms, %d recovered/reprovisioned, totals %+v", len(results), recovered, total)
}

// TestStormDefaultsApplied pins the zero-config storm: defaults fill in,
// and the result echoes the resolved identity.
func TestStormDefaultsApplied(t *testing.T) {
	r, err := RunStorm(StormConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != host.KindSSHD || r.Level != protect.LevelSealed || r.Seed != 9 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	if len(r.Log) == 0 || r.Fingerprint == "" {
		t.Fatal("storm produced no log or fingerprint")
	}
	last := r.Log[len(r.Log)-1]
	if !strings.Contains(last, "fingerprint=") {
		t.Fatalf("final log line should carry the fingerprint: %q", last)
	}
}
