package supervise

import (
	"strings"
	"testing"

	"memshield/internal/fault"
	"memshield/internal/host"
	"memshield/internal/protect"
	"memshield/internal/stats"
)

// FuzzStorm drives the storm machine over seeds, servers, levels, storm
// lengths (1–64 steps) and per-site fault odds (each clamped to
// [0, 0.25]). No input may trip an invariant, and a second run of the
// same input must write a byte-identical log.
func FuzzStorm(f *testing.F) {
	// The soak-smoke storms (cmd/soak -seed 2007: storm i runs seed
	// DeriveSeed(2007, i)), cut to 64 steps at the default odds.
	d := DefaultStormPlan(0).Rules
	for i := int64(0); i < 6; i++ {
		f.Add(stats.DeriveSeed(2007, i), uint8(0), uint8(protect.LevelSealed-1), uint8(63),
			d[fault.SiteAllocPages].Prob, d[fault.SiteZeroOnFree].Prob, d[fault.SiteMlock].Prob,
			d[fault.SiteSwapStore].Prob, d[fault.SiteEvict].Prob, d[fault.SiteFSRead].Prob,
			d[fault.SiteMalloc].Prob, d[fault.SiteUnseal].Prob, d[fault.SiteSeal].Prob)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, level, steps uint8,
		allocPages, zeroOnFree, mlock, swapStore, evict, fsRead, malloc, unseal, seal float64) {
		plan := DefaultStormPlan(seed)
		odds := []float64{allocPages, zeroOnFree, mlock, swapStore, evict, fsRead, malloc, unseal, seal}
		for i, site := range fault.Sites() {
			p := odds[i]
			if !(p > 0) { // negative or NaN
				p = 0
			}
			plan.Rules[site] = fault.Rule{Prob: min(p, 0.25)}
		}
		cfg := StormConfig{
			Kind:  []host.Kind{host.KindSSHD, host.KindHTTPD}[kind%2],
			Level: protect.All()[int(level)%len(protect.All())],
			Seed:  seed,
			Steps: 1 + int(steps)%64,
			Plan:  plan,
		}
		a, err := RunStorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.InvariantErr != "" {
			t.Fatalf("%s/%s seed %d: invariant violated: %s", cfg.Kind, cfg.Level, seed, a.InvariantErr)
		}
		b, err := RunStorm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if la, lb := strings.Join(a.Log, "\n"), strings.Join(b.Log, "\n"); la != lb {
			t.Fatalf("log diverged on replay:\n%s\n---\n%s", la, lb)
		}
	})
}
