// Fleet-engine benchmarks behind `make bench-json`: full 10k and 100k
// timelines, each reporting ns per simulated tick. The 1M-connection
// timeline is the memory headline: peak heap stays O(machines + open
// connections) because per-event costs replace per-open-connection-per-tick
// costs and the statistics stream instead of materializing.
package memshield

import (
	"flag"
	"testing"

	"memshield/internal/fleet"
	"memshield/internal/protect"
)

// fleet1M opts the ~5-minute million-connection timeline into a bench
// run: go test -bench FleetTimeline1M -fleet-1m -benchtime=1x .
var fleet1M = flag.Bool("fleet-1m", false, "run the 1M-connection fleet timeline benchmark")

// benchFleet runs one fleet config per iteration and reports the
// trajectory metrics.
func benchFleet(b *testing.B, cfg fleet.Config) {
	b.Helper()
	var last *fleet.Result
	for i := 0; i < b.N; i++ {
		res, err := fleet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d connection errors", res.Errors)
		}
		last = res
	}
	ticks := float64(cfg.Horizon) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ticks, "ns/simtick")
	b.ReportMetric(float64(last.Arrivals), "conns")
	b.ReportMetric(float64(last.PeakOpen), "peak-open")
	if last.PeakHeapBytes > 0 {
		b.ReportMetric(float64(last.PeakHeapBytes)/(1<<20), "peak-heap-MB")
	}
}

// fleetBenchConfig is the shared trajectory shape: total connections over
// a 1000-tick horizon, machine count scaling with size.
func fleetBenchConfig(conns int64, machines int) fleet.Config {
	return fleet.Sized(conns, machines, 1000, protect.LevelIntegrated, 2007)
}

func BenchmarkFleetEvent10k(b *testing.B) {
	benchFleet(b, fleetBenchConfig(10_000, 4))
}

func BenchmarkFleetEvent100k(b *testing.B) {
	benchFleet(b, fleetBenchConfig(100_000, 16))
}

// BenchmarkFleetTimeline1M is the headline: one million connections
// across 64 machines, with peak live heap measured. Opt-in (-fleet-1m)
// because a full run takes minutes on one core.
func BenchmarkFleetTimeline1M(b *testing.B) {
	if !*fleet1M {
		b.Skip("pass -fleet-1m to run the million-connection timeline")
	}
	cfg := fleetBenchConfig(1_000_000, 64)
	cfg.MeasureMem = true
	benchFleet(b, cfg)
}
