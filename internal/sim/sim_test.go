package sim

import (
	"testing"

	"memshield/internal/protect"
	"memshield/internal/scan"
)

// runTL runs a timeline with small-but-representative parameters.
func runTL(t *testing.T, kind ServerKind, level protect.Level) *Result {
	t.Helper()
	res, err := Run(Config{Kind: kind, Level: level, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sampleAt returns the sample for a tick.
func sampleAt(t *testing.T, res *Result, tick int) TickSample {
	t.Helper()
	for _, s := range res.Samples {
		if s.Tick == tick {
			return s
		}
	}
	t.Fatalf("no sample at tick %d", tick)
	return TickSample{}
}

func TestRunRejectsBadKind(t *testing.T) {
	if _, err := Run(Config{Kind: ServerKind(0)}); err == nil {
		t.Fatal("want error for unset kind")
	}
}

func TestSSHUnprotectedTimelineShape(t *testing.T) {
	res := runTL(t, KindSSH, protect.LevelNone)
	if len(res.Samples) != 30 {
		t.Fatalf("samples = %d, want 30", len(res.Samples))
	}
	sched := DefaultSchedule()

	// Observation (1): PEM already cached at t=0 (server not yet started).
	t0 := sampleAt(t, res, 0)
	if t0.Summary.ByPart[scan.PartPEM] != 1 {
		t.Fatalf("t=0 PEM copies = %d, want 1 (pre-cached file)", t0.Summary.ByPart[scan.PartPEM])
	}
	if t0.ServerRunning {
		t.Fatal("server should not be running at t=0")
	}

	// Observation (2): at server start, d/p/q appear.
	t2 := sampleAt(t, res, sched.StartServer)
	if t2.Summary.ByPart[scan.PartD] == 0 || t2.Summary.ByPart[scan.PartP] == 0 {
		t.Fatalf("t=2 parts = %v, want live d/p/q", t2.Summary.ByPart)
	}

	// Observation (3): copies flood once traffic starts, and some land in
	// unallocated memory.
	quiet := sampleAt(t, res, sched.TrafficLow-1).Summary.Total
	busy := sampleAt(t, res, sched.TrafficHigh).Summary.Total
	if busy <= quiet*2 {
		t.Fatalf("copies did not flood: quiet=%d busy=%d", quiet, busy)
	}
	if sampleAt(t, res, sched.TrafficHigh).Summary.Unallocated == 0 {
		t.Fatal("traffic churn should leave unallocated copies")
	}

	// Copies scale with concurrency: 16-conn plateau > 8-conn plateau
	// (allocated copies track live connections).
	low := sampleAt(t, res, sched.TrafficHigh-1).Summary.Allocated
	high := sampleAt(t, res, sched.TrafficMid-1).Summary.Allocated
	if high <= low {
		t.Fatalf("allocated copies at 16 conns (%d) should exceed 8 conns (%d)", high, low)
	}

	// Observation (4): traffic stops -> allocated copies drop.
	drained := sampleAt(t, res, sched.StopServer-1).Summary.Allocated
	if drained >= high {
		t.Fatalf("allocated copies after drain = %d, want < %d", drained, high)
	}

	// Observation (5): after the server stops, d/p/q persist only in
	// unallocated memory; the PEM file remains in the page cache.
	end := sampleAt(t, res, sched.End)
	if end.ServerRunning {
		t.Fatal("server should be stopped at the end")
	}
	if end.Summary.Unallocated == 0 {
		t.Fatal("ghost copies should persist to the end")
	}
	if end.Summary.Allocated != 1 || end.Summary.ByPart[scan.PartPEM] != 1 {
		t.Fatalf("end allocated = %d (PEM=%d), want only the cached PEM",
			end.Summary.Allocated, end.Summary.ByPart[scan.PartPEM])
	}
}

func TestApacheUnprotectedTimelineShape(t *testing.T) {
	res := runTL(t, KindApache, protect.LevelNone)
	sched := DefaultSchedule()

	// Observation (1): multiple copies right at startup (double config
	// pass + prefork pool).
	t2 := sampleAt(t, res, sched.StartServer)
	if t2.Summary.ByPart[scan.PartD] < 2 {
		t.Fatalf("t=2 d copies = %d, want >= 2 (double config load)", t2.Summary.ByPart[scan.PartD])
	}

	// Observation (2): flood with traffic.
	busy := sampleAt(t, res, sched.TrafficMid-1)
	if busy.Summary.Total <= t2.Summary.Total {
		t.Fatalf("copies did not grow with traffic: %d -> %d", t2.Summary.Total, busy.Summary.Total)
	}

	// Observation (3): after traffic stops the pool shrinks; unallocated
	// copies accumulate.
	afterDrain := sampleAt(t, res, sched.StopServer-1)
	if afterDrain.Summary.Unallocated == 0 {
		t.Fatal("reaped workers should leave unallocated copies")
	}

	// Observation (4): after server stop, ghosts persist to the end.
	end := sampleAt(t, res, sched.End)
	if end.Summary.Unallocated == 0 {
		t.Fatal("ghost copies should persist after stop")
	}
}

func TestProtectedTimelinesConstantAndClean(t *testing.T) {
	for _, kind := range []ServerKind{KindSSH, KindApache} {
		for _, level := range []protect.Level{protect.LevelApp, protect.LevelLibrary, protect.LevelIntegrated} {
			kind, level := kind, level
			t.Run(kind.String()+"/"+level.String(), func(t *testing.T) {
				res := runTL(t, kind, level)
				sched := DefaultSchedule()
				wantPEM := 1
				if level.EvictsPEM() {
					wantPEM = 0
				}
				var refTotal int
				for _, s := range res.Samples {
					if s.Tick < sched.StartServer || s.Tick >= sched.StopServer {
						continue
					}
					// While the server runs: never any unallocated copy,
					// and a constant allocated count (d,p,q once + PEM).
					if s.Summary.Unallocated != 0 {
						t.Fatalf("tick %d: %d unallocated copies under %v",
							s.Tick, s.Summary.Unallocated, level)
					}
					want := 3 + wantPEM
					if s.Summary.Total != want {
						t.Fatalf("tick %d: total = %d, want %d", s.Tick, s.Summary.Total, want)
					}
					if refTotal == 0 {
						refTotal = s.Summary.Total
					}
				}
				// After stop: under integrated/library/app the key's heap
				// copies were freed; with zero-on-free (integrated) memory
				// is completely clean.
				end := sampleAt(t, res, sched.End)
				if level == protect.LevelIntegrated && end.Summary.Total != 0 {
					t.Fatalf("integrated end state: %d copies", end.Summary.Total)
				}
			})
		}
	}
}

func TestKernelLevelTimeline(t *testing.T) {
	res := runTL(t, KindSSH, protect.LevelKernel)
	sched := DefaultSchedule()
	busy := sampleAt(t, res, sched.TrafficMid-1)
	// Allocated floods, unallocated is always clean.
	if busy.Summary.Allocated < 10 {
		t.Fatalf("kernel level: allocated = %d, want flood", busy.Summary.Allocated)
	}
	for _, s := range res.Samples {
		if s.Summary.Unallocated != 0 {
			t.Fatalf("tick %d: unallocated = %d under kernel level", s.Tick, s.Summary.Unallocated)
		}
	}
	// After stop, nothing remains but the cached PEM (zeroed frees killed
	// the ghosts).
	end := sampleAt(t, res, sched.End)
	if end.Summary.Total != end.Summary.ByPart[scan.PartPEM] {
		t.Fatalf("end copies = %v, want only PEM", end.Summary.ByPart)
	}
}

func TestSecureDeallocTimeline(t *testing.T) {
	res := runTL(t, KindSSH, protect.LevelSecureDealloc)
	// Snapshots happen after the tick's deferred zeroing drains, so
	// unallocated memory is clean at every sample — Chow et al.'s
	// guarantee — while allocated copies still flood.
	sched := DefaultSchedule()
	for _, s := range res.Samples {
		if s.Summary.Unallocated != 0 {
			t.Fatalf("tick %d: unallocated = %d under secure-dealloc", s.Tick, s.Summary.Unallocated)
		}
	}
	busy := sampleAt(t, res, sched.TrafficMid-1)
	if busy.Summary.Allocated < 10 {
		t.Fatalf("secure-dealloc: allocated = %d, want flood", busy.Summary.Allocated)
	}
}

func TestDeterminism(t *testing.T) {
	r1 := runTL(t, KindSSH, protect.LevelNone)
	r2 := runTL(t, KindSSH, protect.LevelNone)
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range r1.Samples {
		if r1.Samples[i].Summary.Total != r2.Samples[i].Summary.Total {
			t.Fatalf("tick %d: %d vs %d", i, r1.Samples[i].Summary.Total, r2.Samples[i].Summary.Total)
		}
	}
}

func TestServerKindString(t *testing.T) {
	if KindSSH.String() != "openssh" || KindApache.String() != "apache" {
		t.Fatal("kind names wrong")
	}
	if ServerKind(9).String() == "" {
		t.Fatal("unknown kind should format")
	}
}
