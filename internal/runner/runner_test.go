package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"memshield/internal/stats"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}

// TestMapOrderedResults: results land at their cell index no matter the
// worker count, and every worker count reproduces the workers=1 reference.
func TestMapOrderedResults(t *testing.T) {
	cell := func(i int) (string, error) {
		// Derive a per-cell value through the same seed machinery the
		// experiments use, so the test doubles as a smoke test of
		// independent per-cell streams.
		rng := stats.NewRand(stats.DeriveSeed(99, int64(i)))
		return fmt.Sprintf("cell%d:%d", i, rng.Intn(1000)), nil
	}
	ref, err := Map(1, 50, cell)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Map(workers, 50, cell)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d cell %d: %q != reference %q", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestMapParallelism proves the pool actually runs cells concurrently (the
// PR-1 race run was vacuously clean on a sequential tree; this test gives
// -race real concurrency to chew on): cells rendezvous until `workers`
// of them are in flight at once.
func TestMapParallelism(t *testing.T) {
	const workers = 4
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		inCell  int
		peak    int
		touched atomic.Int64
	)
	_, err := Map(workers, workers, func(i int) (int, error) {
		touched.Add(1)
		mu.Lock()
		inCell++
		if inCell > peak {
			peak = inCell
		}
		// Block until all workers' cells have arrived; the last one in
		// releases everyone. Deadlock-free because Map runs exactly
		// `workers` cells here, one per worker.
		for inCell < workers {
			cond.Wait()
		}
		cond.Broadcast()
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != workers {
		t.Fatalf("peak concurrency = %d, want %d", peak, workers)
	}
	if touched.Load() != workers {
		t.Fatalf("cells run = %d", touched.Load())
	}
}

// TestMapErrorInjection: a failing cell aborts the run, the lowest-indexed
// recorded failure wins, and the pool drains cleanly (every started cell
// finishes; no new cells start after the failure is observed).
func TestMapErrorInjection(t *testing.T) {
	boom := errors.New("injected failure")
	var started atomic.Int64
	_, err := Map(4, 100, func(i int) (int, error) {
		started.Add(1)
		if i%10 == 3 { // cells 3, 13, 23, ... fail
			return 0, fmt.Errorf("cell %d: %w", i, boom)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if started.Load() == 100 {
		t.Fatal("pool did not stop early on failure")
	}
}

// TestMapErrorLowestIndexWins: when several cells fail, the returned error
// is the lowest-indexed one among the failures.
func TestMapErrorLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(workers, 8, func(i int) (int, error) {
			return 0, fmt.Errorf("cell %d failed", i)
		})
		if err == nil || err.Error() != "cell 0 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 0 failed", workers, err)
		}
	}
}

func TestMapSingleWorkerStopsAtFirstError(t *testing.T) {
	var ran []int
	_, err := Map(1, 10, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 4 {
			return 0, errors.New("stop here")
		}
		return i, nil
	})
	if err == nil || err.Error() != "stop here" {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 5 {
		t.Fatalf("sequential fallback ran %v, want cells 0..4 only", ran)
	}
}

func TestMapUntilEmpty(t *testing.T) {
	out, ran, err := MapUntil(4, 0,
		func(i int) (int, error) { return i, nil },
		func(int, int) bool { return false })
	if err != nil || out != nil || ran != nil {
		t.Fatalf("MapUntil(0 cells) = %v,%v,%v, want nils", out, ran, err)
	}
}

func TestMapUntilNoStopRunsEverything(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		out, ran, err := MapUntil(w, 20,
			func(i int) (int, error) { return i * i, nil },
			func(int, int) bool { return false })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if !ran[i] || out[i] != i*i {
				t.Fatalf("w=%d: cell %d ran=%v out=%d", w, i, ran[i], out[i])
			}
		}
	}
}

func TestMapUntilPrefixGuarantee(t *testing.T) {
	// Stop at cell 7: every cell <= 7 must have run, at any worker count.
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		out, ran, err := MapUntil(w, 100,
			func(i int) (int, error) { return i, nil },
			func(i int, _ int) bool { return i == 7 })
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 7; i++ {
			if !ran[i] || out[i] != i {
				t.Fatalf("w=%d: cell %d below stop point did not run", w, i)
			}
		}
		// With one worker the sequential path stops exactly at the stop
		// cell — the reference any pool schedule must stay a superset of.
		if w == 1 {
			for i := 8; i < 100; i++ {
				if ran[i] {
					t.Fatalf("sequential path ran cell %d past the stop", i)
				}
			}
		}
	}
}

func TestMapUntilStopBoundsClaims(t *testing.T) {
	// After a stop at cell s, no cell beyond s may be NEWLY claimed; with
	// w workers at most w-1 cells above s were already in flight. We bound
	// the total overshoot rather than asserting an exact set.
	const n, s, w = 1000, 3, 4
	var ranCount atomic.Int64
	_, ran, err := MapUntil(w, n,
		func(i int) (int, error) { ranCount.Add(1); return i, nil },
		func(i int, _ int) bool { return i >= s })
	if err != nil {
		t.Fatal(err)
	}
	total := int(ranCount.Load())
	if total != countTrue(ran) {
		t.Fatalf("ran bitmap %d != executed %d", countTrue(ran), total)
	}
	if total >= n {
		t.Fatalf("stop had no effect: all %d cells ran", total)
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func TestMapUntilErrorWins(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := MapUntil(4, 50,
		func(i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		},
		func(int, int) bool { return false })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
