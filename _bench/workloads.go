package main

import (
	"fmt"
	"math"

	"memshield/internal/fleet"
	"memshield/internal/protect"
)

// workload is one named fleet timeline. Every workload keeps about 5,000
// connections per machine over a 1000-tick horizon, so per-machine memory
// and per-machine event density are the same everywhere; only the server,
// the protection level and scanning differ.
type workload struct {
	Name     string
	Kind     fleet.Kind
	Level    protect.Level
	Conns    int64
	Machines int
	// SampleEvery is the scan-window cadence (0 = scanning off).
	SampleEvery uint64
}

// The four workloads. Why each exists is recorded in BENCHMARK.json and
// _bench/README.md; the short version is that each one exercises a
// different mix of layers, so a change to one layer has a workload that
// should move and one that should not.
var workloads = []workload{
	{Name: "sshd-integrated", Kind: fleet.KindSSHD, Level: protect.LevelIntegrated, Conns: 80_000, Machines: 16},
	{Name: "httpd-integrated", Kind: fleet.KindHTTPD, Level: protect.LevelIntegrated, Conns: 80_000, Machines: 16},
	{Name: "sshd-sealed-scan", Kind: fleet.KindSSHD, Level: protect.LevelSealed, Conns: 40_000, Machines: 8, SampleEvery: 10},
	{Name: "sshd-none-scan", Kind: fleet.KindSSHD, Level: protect.LevelNone, Conns: 40_000, Machines: 8, SampleEvery: 10},
}

// loadWorkers is the number of goroutines driving fleet shards: one per
// CPU of the 2-vCPU machine the benchmark is sized for.
const loadWorkers = 2

// fullHorizon is the timed run's horizon; the arrival rate is sized for it.
const fullHorizon = 1000

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the fleet config of the workload at the given seed,
// truncated to horizon ticks (the arrival rate stays sized for
// fullHorizon, so a truncated run is a prefix of the full timeline).
func (w workload) config(seed int64, horizon uint64) fleet.Config {
	cfg := fleet.Sized(w.Conns, w.Machines, fullHorizon, w.Level, seed)
	cfg.Kind = w.Kind
	cfg.SampleEvery = w.SampleEvery
	cfg.Workers = loadWorkers
	cfg.Horizon = horizon
	return cfg
}

// goldenSeed is the seed whose simulated outputs are pinned below.
const goldenSeed = 2007

// golden is a workload's pinned seed-2007 outcome. The fingerprint covers
// the population events only, so both 80k/16 workloads share one, and so do
// both 40k/8 workloads.
type golden struct {
	Fingerprint uint64
	Arrivals    int64
	// KeyCopiesMean is the mean scanner copy count per window; checked only
	// on workloads that scan.
	KeyCopiesMean float64
}

var goldens = map[string]golden{
	"sshd-integrated":  {Fingerprint: 0xadb48b6f8aa583ce, Arrivals: 80088},
	"httpd-integrated": {Fingerprint: 0xadb48b6f8aa583ce, Arrivals: 80088},
	"sshd-sealed-scan": {Fingerprint: 0x7362977c565f4e7f, Arrivals: 39658, KeyCopiesMean: 0},
	"sshd-none-scan":   {Fingerprint: 0x7362977c565f4e7f, Arrivals: 39658, KeyCopiesMean: 1462.76875},
}

// checkResult returns every way a full-horizon fleet result is wrong: a
// golden mismatch at the golden seed, and at any seed a failed or shed
// connection or a scannable key copy under sealing.
func checkResult(w workload, seed int64, res *fleet.Result) []string {
	var bad []string
	if res.Errors+res.Shed != 0 {
		bad = append(bad, fmt.Sprintf("%d errors and %d shed connections", res.Errors, res.Shed))
	}
	if w.SampleEvery > 0 && w.Level.SealsAtRest() && res.Copies.StreamMax() != 0 {
		bad = append(bad, fmt.Sprintf("sealed key found in memory: max %v copies in a window", res.Copies.StreamMax()))
	}
	g, ok := goldens[w.Name]
	if seed != goldenSeed || !ok {
		return bad
	}
	if res.Fingerprint != g.Fingerprint {
		bad = append(bad, fmt.Sprintf("fingerprint %#x, golden %#x", res.Fingerprint, g.Fingerprint))
	}
	if res.Arrivals != g.Arrivals {
		bad = append(bad, fmt.Sprintf("arrivals %d, golden %d", res.Arrivals, g.Arrivals))
	}
	if w.SampleEvery > 0 {
		if got := res.Copies.Mean(); math.Abs(got-g.KeyCopiesMean) > 1e-9*math.Max(1, g.KeyCopiesMean) {
			bad = append(bad, fmt.Sprintf("key_copies_mean %v, golden %v", got, g.KeyCopiesMean))
		}
	}
	return bad
}
