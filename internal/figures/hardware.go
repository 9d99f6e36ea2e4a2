package figures

import (
	"fmt"
	"strings"

	"memshield/internal/attack/ttyleak"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/report"
	"memshield/internal/runner"
	"memshield/internal/scan"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// HardwareRow is one configuration's outcome under total disclosure.
type HardwareRow struct {
	Name string
	// CopiesInRAM is the scanner's ground truth while the server is busy.
	CopiesInRAM int
	// FullDumpSuccess / HalfDumpRate are the tty attack at fraction 1.0
	// (one dump of everything) and at the paper's ~0.5.
	FullDumpSuccess bool
	HalfDumpRate    float64
}

// HardwareResult quantifies the paper's concluding claim — "in order to
// completely avoid key exposures due to memory disclosures, special
// hardware is necessary" — by pitting the best software solution
// (integrated) against an HSM-backed server. The integrated solution's one
// remaining copy loses a full-memory dump with certainty and a half-memory
// dump about half the time; the hardware configuration loses neither,
// because no key byte exists in RAM to disclose.
type HardwareResult struct {
	Trials int
	Rows   []HardwareRow
}

// Hardware runs the experiment on the OpenSSH server.
func Hardware(cfg Config) (*HardwareResult, error) {
	cfg.applyDefaults()
	memPages := cfg.MemPages
	if memPages == 0 {
		memPages = defaultTTYMemPages
	}
	trials := cfg.scaled(defaultTTYTrials*2, 8)
	conns := cfg.scaled(20, 4)
	res := &HardwareResult{Trials: trials}

	type setup struct {
		name string
		hsm  bool
	}
	setups := []setup{
		{name: "integrated software solution", hsm: false},
		{name: "hardware security module", hsm: true},
	}
	rows, err := runner.Map(cfg.Workers, len(setups), func(si int) (HardwareRow, error) {
		st := setups[si]
		cellSeed := cfg.deriveSeed(labelHardware, int64(si))
		key, err := rsakey.Generate(stats.NewReader(subSeed(cellSeed, 1)), cfg.KeyBits)
		if err != nil {
			return HardwareRow{}, err
		}
		// Key-less boot: the software row installs its key file after the
		// scramble, the hardware row never writes one.
		k, err := host.Boot(kernel.Config{MemPages: memPages, DeallocPolicy: levelIntegrated.KernelPolicy()},
			subSeed(cellSeed, 2))
		if err != nil {
			return HardwareRow{}, fmt.Errorf("figures: hardware: %w", err)
		}
		patterns := scan.PatternsFor(key)
		var srv *sshd.Server
		if st.hsm {
			device := hsm.New()
			slot, err := device.Import(key)
			if err != nil {
				return HardwareRow{}, err
			}
			srv, err = sshd.Start(k, sshd.Config{
				Level: levelIntegrated,
				HSM:   &hsm.Slot{Module: device, ID: slot},
				Seed:  subSeed(cellSeed, 3),
			})
			if err != nil {
				return HardwareRow{}, err
			}
		} else {
			if err := host.InstallKey(k, keyPath, key); err != nil {
				return HardwareRow{}, err
			}
			srv, err = sshd.Start(k, sshd.Config{
				KeyPath: keyPath, Level: levelIntegrated, Seed: subSeed(cellSeed, 3),
			})
			if err != nil {
				return HardwareRow{}, err
			}
		}
		for i := 0; i < conns; i++ {
			if _, err := srv.Connect(); err != nil {
				return HardwareRow{}, err
			}
		}
		row := HardwareRow{Name: st.name}
		row.CopiesInRAM = scan.Summarize(scan.New(k, patterns).Scan()).Total

		full, err := ttyleak.Run(k, patterns, stats.NewRand(subSeed(cellSeed, subFullDump)),
			ttyleak.Config{Fraction: 1.0, Jitter: 0.0001})
		if err != nil {
			return HardwareRow{}, err
		}
		row.FullDumpSuccess = full.Success

		hits := 0
		rng := stats.NewRand(subSeed(cellSeed, subHalfDump))
		for trial := 0; trial < trials; trial++ {
			r, err := ttyleak.Run(k, patterns, rng, ttyleak.Config{})
			if err != nil {
				return HardwareRow{}, err
			}
			if r.Success {
				hits++
			}
		}
		row.HalfDumpRate = stats.Rate(hits, trials)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render prints the comparison table.
func (r *HardwareResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Software limit vs special hardware under the tty-dump attack (%d half-dump trials)\n", r.Trials)
	headers := []string{"configuration", "key copies in RAM", "full-dump success", "half-dump success rate"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.CopiesInRAM),
			fmt.Sprintf("%v", row.FullDumpSuccess),
			report.Float(row.HalfDumpRate, 2),
		})
	}
	b.WriteString(report.RenderTable("", headers, rows))
	b.WriteString("\nThe paper's conclusion quantified: software can reduce the key to one copy\nbut never to zero; only keeping the key out of RAM entirely removes the\nresidual disclosure probability.\n")
	return b.String()
}
