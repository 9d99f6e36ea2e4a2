// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the substrate operations. Each BenchmarkFigureN runs
// the corresponding catalog experiment (scaled down so the full suite
// completes in minutes; run cmd/figures with -scale 1 for paper-scale
// sweeps) and reports the experiment's headline number as a custom metric.
package memshield

import (
	"flag"
	"testing"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/figures"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/stats"
	"memshield/internal/workload"
)

// benchWorkers sets how many goroutines each experiment fans its cells
// across (0 = one per CPU). Results are byte-identical at any value, so
// this only changes the wall-clock side of the reported metrics:
//
//	go test -bench=Figure -bench-workers=1 .
var benchWorkers = flag.Int("bench-workers", 0, "worker goroutines per experiment (0 = one per CPU)")

// benchCfg is the shared scaled-down experiment configuration.
func benchCfg() figures.Config {
	return figures.Config{Seed: 2007, Scale: 0.2, Workers: *benchWorkers}
}

// runEntry executes one catalog experiment per iteration.
func runEntry(b *testing.B, id string) figures.Rendered {
	b.Helper()
	entry, ok := figures.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	var last figures.Rendered
	for i := 0; i < b.N; i++ {
		res, err := entry.Run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// --- Figures 1–2: ext2-leak attack sweeps ---

func BenchmarkFigure1SSHExt2Sweep(b *testing.B) {
	res := runEntry(b, "fig1").(*figures.Ext2Sweep)
	nd, nc := len(res.Dirs), len(res.Conns)
	b.ReportMetric(res.AvgCopies[nd-1][nc-1], "copies@max")
	b.ReportMetric(res.SuccessRate[nd-1][nc-1], "success@max")
}

func BenchmarkFigure2ApacheExt2Sweep(b *testing.B) {
	res := runEntry(b, "fig2").(*figures.Ext2Sweep)
	nd, nc := len(res.Dirs), len(res.Conns)
	b.ReportMetric(res.AvgCopies[nd-1][nc-1], "copies@max")
	b.ReportMetric(res.SuccessRate[nd-1][nc-1], "success@max")
}

// --- Figures 3–4: tty-dump attack sweeps ---

func BenchmarkFigure3SSHTTYSweep(b *testing.B) {
	res := runEntry(b, "fig3").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "copies@max")
	b.ReportMetric(res.SuccessRate[0][n-1], "success@max")
}

func BenchmarkFigure4ApacheTTYSweep(b *testing.B) {
	res := runEntry(b, "fig4").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "copies@max")
	b.ReportMetric(res.SuccessRate[0][n-1], "success@max")
}

// --- Figures 5–6: unprotected timelines ---

func timelinePeak(res *figures.TimelineFigure) (peak, endUnalloc float64) {
	for _, s := range res.Result.Samples {
		if float64(s.Summary.Total) > peak {
			peak = float64(s.Summary.Total)
		}
	}
	last := res.Result.Samples[len(res.Result.Samples)-1]
	return peak, float64(last.Summary.Unallocated)
}

func BenchmarkFigure5SSHTimeline(b *testing.B) {
	res := runEntry(b, "fig5").(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

func BenchmarkFigure6ApacheTimeline(b *testing.B) {
	res := runEntry(b, "fig6").(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

// --- Figures 7 / 17–18: before vs after integrated under the tty attack ---

func BenchmarkFigure7SSHBeforeAfter(b *testing.B) {
	res := runEntry(b, "fig7").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "before-copies")
	b.ReportMetric(res.AvgCopies[1][n-1], "after-copies")
	b.ReportMetric(res.SuccessRate[1][n-1], "after-success")
}

func BenchmarkFigure17ApacheBeforeAfter(b *testing.B) {
	res := runEntry(b, "fig17").(*figures.TTYSweep)
	n := len(res.Conns)
	b.ReportMetric(res.AvgCopies[0][n-1], "before-copies")
	b.ReportMetric(res.AvgCopies[1][n-1], "after-copies")
	b.ReportMetric(res.SuccessRate[1][n-1], "after-success")
}

// --- Figures 8 / 19–20: performance before vs after ---

func BenchmarkFigure8SSHPerf(b *testing.B) {
	res := runEntry(b, "fig8").(*figures.PerfComparison)
	b.ReportMetric(res.Before.TransactionRate, "before-txn/s")
	b.ReportMetric(res.After.TransactionRate, "after-txn/s")
	b.ReportMetric(res.Before.ThroughputMbit, "before-Mbit/s")
	b.ReportMetric(res.After.ThroughputMbit, "after-Mbit/s")
}

func BenchmarkFigure19ApachePerf(b *testing.B) {
	res := runEntry(b, "fig19").(*figures.PerfComparison)
	b.ReportMetric(res.Before.TransactionRate, "before-txn/s")
	b.ReportMetric(res.After.TransactionRate, "after-txn/s")
	b.ReportMetric(res.Before.ResponseTimeSec*1000, "before-resp-ms")
	b.ReportMetric(res.After.ResponseTimeSec*1000, "after-resp-ms")
	b.ReportMetric(res.Before.Concurrency, "before-concurrency")
	b.ReportMetric(res.After.Concurrency, "after-concurrency")
}

// --- Figures 9–16: OpenSSH timelines per protection level ---

func benchTimeline(b *testing.B, id string) {
	res := runEntry(b, id).(*figures.TimelineFigure)
	peak, ghosts := timelinePeak(res)
	b.ReportMetric(peak, "peak-copies")
	b.ReportMetric(ghosts, "end-unallocated")
}

func BenchmarkFigure9SSHTimelineApp(b *testing.B)         { benchTimeline(b, "fig9") }
func BenchmarkFigure11SSHTimelineLibrary(b *testing.B)    { benchTimeline(b, "fig11") }
func BenchmarkFigure13SSHTimelineKernel(b *testing.B)     { benchTimeline(b, "fig13") }
func BenchmarkFigure15SSHTimelineIntegrated(b *testing.B) { benchTimeline(b, "fig15") }

// --- Figures 21–28: Apache timelines per protection level ---

func BenchmarkFigure21ApacheTimelineApp(b *testing.B)        { benchTimeline(b, "fig21") }
func BenchmarkFigure23ApacheTimelineLibrary(b *testing.B)    { benchTimeline(b, "fig23") }
func BenchmarkFigure25ApacheTimelineKernel(b *testing.B)     { benchTimeline(b, "fig25") }
func BenchmarkFigure27ApacheTimelineIntegrated(b *testing.B) { benchTimeline(b, "fig27") }

// --- §5.2/§6.2 re-examination and the dealloc ablation ---

func BenchmarkExt2Reexam(b *testing.B) {
	res := runEntry(b, "ext2-reexam").(*figures.Ext2ReexamResult)
	worst := 0.0
	for _, row := range res.Rows {
		if row.Level != protect.LevelNone && row.SuccessRate > worst {
			worst = row.SuccessRate
		}
	}
	b.ReportMetric(worst, "protected-worst-success")
}

func BenchmarkAblationDealloc(b *testing.B) {
	res := runEntry(b, "ablation").(*figures.AblationResult)
	for _, row := range res.Rows {
		if row.Level == protect.LevelIntegrated {
			b.ReportMetric(row.AvgCopies, "integrated-attack-copies")
		}
		if row.Level == protect.LevelSecureDealloc {
			b.ReportMetric(row.AvgCopies, "securedealloc-attack-copies")
		}
	}
}

// --- Micro-benchmarks of the substrate ---

func BenchmarkMachineBoot32MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanMachine boots the shared 32 MiB scan-benchmark machine: an
// unprotected SSH server with 8 live connections.
func benchScanMachine(b *testing.B) (*Machine, *Key) {
	b.Helper()
	m, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	return m, key
}

// BenchmarkMemoryScan32MB measures Machine.Scan as callers see it: the
// machine's per-key scanner is incremental, so with no writes between
// iterations each scan after the first costs O(dirty pages) = O(1).
func BenchmarkMemoryScan32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		if got := m.Scan(key); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

// BenchmarkMemoryScanCold32MB measures the single-pass engine alone: a
// fresh scanner per iteration, every frame walked (what the old
// one-pass-per-pattern Scan paid on every call).
func BenchmarkMemoryScanCold32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		sc := scan.New(m.Kernel(), key.Patterns())
		if got := scan.Summarize(sc.Scan()); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

// BenchmarkMemoryScanDirty32MB measures the timeline-shaped workload: one
// page of memory is written between rescans, so the incremental scanner
// re-walks O(1) frames out of 8192 per iteration.
func BenchmarkMemoryScanDirty32MB(b *testing.B) {
	m, key := benchScanMachine(b)
	phys := m.Kernel().Mem()
	dirty := mem.PageNum(phys.NumPages() - 2).Base()
	payload := make([]byte, mem.PageSize)
	if got := m.Scan(key); got.Total == 0 { // prime the incremental cache
		b.Fatal("scan found nothing")
	}
	b.ResetTimer()
	b.SetBytes(32 * 1024 * 1024)
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		if err := phys.Write(dirty, payload); err != nil {
			b.Fatal(err)
		}
		if got := m.Scan(key); got.Total == 0 {
			b.Fatal("scan found nothing")
		}
	}
}

func BenchmarkSSHConnectPerLevel(b *testing.B) {
	for _, level := range []Protection{ProtectionNone, ProtectionIntegrated} {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			m, err := NewMachine(MachineConfig{MemoryMB: 64, Protection: level, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			key, err := m.InstallKey("/k.pem", 512)
			if err != nil {
				b.Fatal(err)
			}
			srv, err := m.StartSSH(level, key.Path)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := srv.Connect()
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Disconnect(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTTYDumpAttack(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 32, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunTTYAttack(key, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt2MkdirLeak(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 64, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunExt2Attack(key, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadSSHBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := workload.RunSSHBench(workload.SSHBenchConfig{
			Level: protect.LevelIntegrated, TotalTransfers: 200, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.TransactionRate, "sim-txn/s")
		}
	}
}

// BenchmarkKeyGeneration512 generates the key a machine seeded i would
// install first (InstallKey's stream), with no machine around it.
func BenchmarkKeyGeneration512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rsakey.Generate(stats.NewReader(int64(i)+100), 512); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension experiments ---

func BenchmarkCopyMinAblation(b *testing.B) {
	res := runEntry(b, "copymin").(*figures.CopyMinResult)
	for _, row := range res.Rows {
		if row.Name == "full alignment (application level)" {
			b.ReportMetric(row.PerConn, "aligned-growth/conn")
		}
	}
}

func BenchmarkHardwareEndpoint(b *testing.B) {
	res := runEntry(b, "hardware").(*figures.HardwareResult)
	b.ReportMetric(res.Rows[0].HalfDumpRate, "software-halfdump-rate")
	b.ReportMetric(res.Rows[1].HalfDumpRate, "hsm-halfdump-rate")
}

func BenchmarkLifetimeAnalysis(b *testing.B) {
	res := runEntry(b, "lifetime").(*figures.LifetimeResult)
	for _, row := range res.Rows {
		if row.Level == protect.LevelNone {
			b.ReportMetric(row.Stats.MeanUnallocatedTicks, "baseline-unalloc-dwell")
		}
		if row.Level == protect.LevelIntegrated {
			b.ReportMetric(row.Stats.MeanUnallocatedTicks, "integrated-unalloc-dwell")
		}
	}
}

func BenchmarkKeyfinderFactorScan(b *testing.B) {
	// Dump a busy unprotected machine once, then measure the public-key-
	// only factor scan over the full image.
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 40})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionNone, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	image := m.DumpMemory()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RecoverKey(image, key, RecoveryOptions{FactorStride: 16, MaxHits: 1})
		if !res.Success() {
			b.Fatal("recovery failed")
		}
	}
}

func BenchmarkProtectionAudit(b *testing.B) {
	m, err := NewMachine(MachineConfig{MemoryMB: 16, Seed: 41, Protection: ProtectionIntegrated})
	if err != nil {
		b.Fatal(err)
	}
	key, err := m.InstallKey("/k.pem", 512)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := m.StartSSH(ProtectionIntegrated, key.Path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := srv.Connect(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.VerifyProtection(key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwapSurface(b *testing.B) {
	res := runEntry(b, "swap").(*figures.SwapSurfaceResult)
	b.ReportMetric(float64(res.Rows[0].DeviceHits), "plain-device-hits")
	b.ReportMetric(float64(res.Rows[1].DeviceHits), "mlock-device-hits")
	b.ReportMetric(float64(res.Rows[2].DeviceHits), "encrypted-device-hits")
}
