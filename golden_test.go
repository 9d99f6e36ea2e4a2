package memshield

import (
	"testing"

	"memshield/internal/figures"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/sim"
)

// Golden conformance tests: these pin the exact headline numbers recorded in
// EXPERIMENTS.md and docs/figures-full-output.txt (all runs are
// deterministic at seed 2007), so the documented results cannot silently
// drift away from what the code produces. If a deliberate model change moves
// these numbers, regenerate the archive (cmd/figures -all > docs/...) and
// update EXPERIMENTS.md together with this file.

const goldenSeed = 2007

// TestGoldenFig5Timeline pins the unprotected OpenSSH timeline of Figure 5
// at the paper's schedule points.
func TestGoldenFig5Timeline(t *testing.T) {
	res, err := sim.Run(sim.Config{Kind: sim.KindSSH, Level: protect.LevelNone, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][3]int{ // tick -> total, allocated, unallocated
		0:  {1, 1, 0},
		2:  {4, 4, 0},
		6:  {84, 44, 40},
		10: {164, 84, 80},
		14: {164, 44, 120},
		18: {164, 4, 160},
		22: {164, 1, 163},
		29: {164, 1, 163},
	}
	for _, s := range res.Samples {
		w, ok := want[s.Tick]
		if !ok {
			continue
		}
		got := [3]int{s.Summary.Total, s.Summary.Allocated, s.Summary.Unallocated}
		if got != w {
			t.Errorf("tick %d: total/alloc/unalloc = %v, want %v (EXPERIMENTS.md is stale?)",
				s.Tick, got, w)
		}
	}
}

// TestGoldenFig15Integrated pins the integrated timeline: exactly 3 copies
// while running, zero at the end.
func TestGoldenFig15Integrated(t *testing.T) {
	res, err := sim.Run(sim.Config{Kind: sim.KindSSH, Level: protect.LevelIntegrated, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		switch {
		case s.Tick >= 2 && s.Tick < 22:
			if s.Summary.Total != 3 || s.Summary.Unallocated != 0 {
				t.Errorf("tick %d: %d/%d, want 3 allocated copies only",
					s.Tick, s.Summary.Total, s.Summary.Unallocated)
			}
		case s.Tick >= 22:
			if s.Summary.Total != 0 {
				t.Errorf("tick %d: %d copies after stop, want 0", s.Tick, s.Summary.Total)
			}
		}
	}
}

// TestGoldenApacheStartup pins Figure 6's startup observation: d/p/q doubled
// (double config pass) plus the cached PEM = 7 copies at t=2.
func TestGoldenApacheStartup(t *testing.T) {
	res, err := sim.Run(sim.Config{Kind: sim.KindApache, Level: protect.LevelNone, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Tick != sim.DefaultSchedule().StartServer {
			continue
		}
		if s.Summary.ByPart[scan.PartD] != 2 || s.Summary.ByPart[scan.PartPEM] != 1 || s.Summary.Total != 7 {
			t.Errorf("apache t=2 = %v (total %d), want doubled d/p/q + PEM = 7",
				s.Summary.ByPart, s.Summary.Total)
		}
	}
}

// TestGoldenHardwareEndpoint pins the hardware experiment's binary outcome.
func TestGoldenHardwareEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := figures.Hardware(figures.Config{Seed: goldenSeed, Scale: 0.5, MemPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	software, hardware := res.Rows[0], res.Rows[1]
	if software.CopiesInRAM != 3 || !software.FullDumpSuccess {
		t.Errorf("software row = %+v", software)
	}
	if hardware.CopiesInRAM != 0 || hardware.FullDumpSuccess || hardware.HalfDumpRate != 0 {
		t.Errorf("hardware row = %+v", hardware)
	}
}
