// Package runner is the trial scheduler behind every sweep, timeline and
// performance experiment: it fans independent (grid point, trial) cells
// across a bounded pool of goroutines while keeping the experiment output
// byte-identical at any worker count.
//
// The determinism contract (DESIGN.md §7) has three clauses:
//
//  1. Cells are independent. A cell builds its own simulated machine and
//     derives its own RNG streams (stats.DeriveSeed) from its cell index —
//     it reads nothing another cell writes.
//  2. Execution order is unspecified; commit order is cell order. Map
//     stores each result at its cell index and returns only after every
//     worker has drained, so aggregation observes results exactly as a
//     sequential loop would.
//  3. Failure is deterministic too: when cells fail, the error of the
//     lowest-indexed failed cell wins, regardless of which worker hit an
//     error first on the wall clock.
//
// The package deliberately must not import time (enforced by the detrand
// analyzer): scheduling here is purely demand-driven — no timeouts, ticks
// or sleeps — because wall-clock scheduling decisions are exactly the kind
// of ambient nondeterminism the contract forbids.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n <= 0 means one worker per
// available CPU (GOMAXPROCS), anything else is taken as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs cell(0..n-1) across min(Workers(workers), n) goroutines and
// returns the n results in cell-index order. With one worker (or one cell)
// it degenerates to a plain loop on the calling goroutine — the reference
// execution that any worker count must reproduce byte-for-byte.
//
// On failure Map returns the error of the lowest-indexed cell among those
// that actually failed (cells not yet claimed when the pool stops are never
// run, so which cells fail can depend on scheduling — but the choice among
// recorded failures cannot). Workers stop claiming new cells once any cell
// has failed, and Map does not return until every in-flight cell has
// finished, so no cell goroutine outlives the call.
func Map[T any](workers, n int, cell func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := cell(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next   atomic.Int64 // next unclaimed cell index
		failed atomic.Bool  // stop claiming once any cell errors
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := cell(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapUntil is Map with deterministic early stopping: after a cell i for
// which stop(i, result) returns true has completed, workers claim no cell
// with a higher index. Cells are claimed in ascending order, so every cell
// with an index at or below the lowest stopping cell is guaranteed to run;
// cells above it may or may not run depending on scheduling. The returned
// ran slice marks which cells actually produced a result.
//
// Callers recover determinism by committing in cell order and cutting off
// at the first stopping cell they encounter — everything at or below it is
// always present, and everything above it is discarded (the keyfinder's
// MaxHits factor scan is the canonical user). Errors follow Map's rule:
// lowest-indexed recorded failure wins.
func MapUntil[T any](workers, n int, cell func(i int) (T, error), stop func(i int, v T) bool) (out []T, ran []bool, err error) {
	if n <= 0 {
		return nil, nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out = make([]T, n)
	ran = make([]bool, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := cell(i)
			if err != nil {
				return nil, nil, err
			}
			out[i] = v
			ran[i] = true
			if stop(i, v) {
				break
			}
		}
		return out, ran, nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		stopped atomic.Int64 // lowest stopping index seen + 1, 0 = none
		errs    = make([]error, n)
		wg      sync.WaitGroup
	)
	stopped.Store(int64(n) + 1)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) >= stopped.Load() {
					return
				}
				v, err := cell(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
				ran[i] = true
				if stop(i, v) {
					// Record the lowest stopping index (CAS loop: another
					// worker may have stopped at a lower cell concurrently).
					for {
						cur := stopped.Load()
						if int64(i) >= cur || stopped.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, ran, nil
}
