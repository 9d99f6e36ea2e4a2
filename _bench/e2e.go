package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"memshield/internal/fleet"
	"memshield/internal/stats"
)

const (
	// warmupHorizon is the discarded first run: it fills the Go heap and
	// the page tables before anything is timed.
	warmupHorizon = 100
	// setupRuns Horizon-1 runs give setup_s as their median. On a 2-vCPU
	// VM one takes 0.15-0.4 s and varies by a fifth or more from run to run.
	setupRuns = 9
)

// timedRun is one measured fleet.Run.
type timedRun struct {
	res    *fleet.Result
	wall   time.Duration
	bytes  uint64 // Go heap bytes allocated during the run
	allocs uint64 // Go heap objects allocated during the run
}

// measure runs cfg once after a full GC, so every measured run starts
// from the same heap state.
func measure(cfg fleet.Config) (timedRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := fleet.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return timedRun{}, err
	}
	runtime.ReadMemStats(&after)
	return timedRun{res: res, wall: wall,
		bytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs}, nil
}

// warmUp performs the discarded warm-up run.
func warmUp(w workload, seed int64) error {
	if _, err := fleet.Run(w.config(seed, warmupHorizon)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// setUp performs the set-up runs. Each draws its own keys from a seed
// derived from seed: the prime search behind keygen takes longer for some
// keys than others, so one seed's set-up time is not typical of the
// workload.
func setUp(w workload, seed int64) ([]timedRun, error) {
	setup := make([]timedRun, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		r, err := measure(w.config(stats.DeriveSeed(seed, int64(i)), 1))
		if err != nil {
			return nil, fmt.Errorf("set-up run: %w", err)
		}
		setup = append(setup, r)
	}
	return setup, nil
}

// repeatTimed runs the full timeline until the next run would end past
// budget (always at least once) and checks every run.
func repeatTimed(w workload, seed int64, budget time.Duration) ([]timedRun, []string, error) {
	var runs []timedRun
	var longest time.Duration
	start := time.Now()
	for len(runs) == 0 || time.Since(start)+longest <= budget {
		r, err := measure(w.config(seed, fullHorizon))
		if err != nil {
			return nil, nil, fmt.Errorf("timed run: %w", err)
		}
		runs = append(runs, r)
		longest = max(longest, r.wall)
	}
	bad := checkResult(w, seed, runs[0].res)
	for _, r := range runs[1:] {
		if r.res.Fingerprint != runs[0].res.Fingerprint {
			bad = append(bad, fmt.Sprintf("timed runs disagree: fingerprint %#x then %#x",
				runs[0].res.Fingerprint, r.res.Fingerprint))
		}
	}
	return runs, bad, nil
}

// runEndToEnd measures the end-to-end metrics of one workload.
func runEndToEnd(w workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	if err := warmUp(w, seed); err != nil {
		return result{}, err
	}
	setup, err := setUp(w, seed)
	if err != nil {
		return result{}, err
	}
	runs, bad, err := repeatTimed(w, seed, budget)
	if err != nil {
		return result{}, err
	}
	// Per-connection Go allocation is taken beyond set-up: the set-up
	// runs' allocation (boot, keygen, server start, one tick) and arrivals
	// are subtracted, so the figure does not swing with each seed's
	// arrival count.
	setupBytes := median(mapRuns(setup, func(r timedRun) float64 { return float64(r.bytes) }))
	setupAllocs := median(mapRuns(setup, func(r timedRun) float64 { return float64(r.allocs) }))
	setupArrivals := median(mapRuns(setup, func(r timedRun) float64 { return float64(r.res.Arrivals) }))
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.res.Arrivals
		failed += r.res.Errors + r.res.Shed
	}
	perConn := func(total, setupTotal float64, r timedRun) float64 {
		return (total - setupTotal) / max(1, float64(r.res.Arrivals)-setupArrivals)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	out := result{
		Correct: len(bad) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{
			"us_per_conn": {median(mapRuns(runs, func(r timedRun) float64 {
				return float64(r.wall.Nanoseconds()) / 1e3 / float64(r.res.Arrivals)
			})), "us"},
			"setup_s": {median(mapRuns(setup, func(r timedRun) float64 { return r.wall.Seconds() })), "s"},
			"go_bytes_per_conn": {median(mapRuns(runs, func(r timedRun) float64 {
				return perConn(float64(r.bytes), setupBytes, r)
			})), "B"},
			"go_allocs_per_conn": {median(mapRuns(runs, func(r timedRun) float64 {
				return perConn(float64(r.allocs), setupAllocs, r)
			})), "count"},
			"peak_rss_mb": {float64(ru.Maxrss) / 1024, "MB"}, // Linux reports KiB
		},
	}
	res := runs[0].res
	fmt.Fprintf(log, "workload %s seed %d: %d timed runs of %d connections on %d machines\n",
		w.Name, seed, len(runs), res.Arrivals, res.Config.Machines)
	fmt.Fprintf(log, "  fingerprint %#x  fail_frac %v (ratio)", res.Fingerprint, float64(failed)/float64(attempted))
	if w.SampleEvery > 0 {
		fmt.Fprintf(log, "  key_copies_mean %v (copies/window over %d windows)", res.Copies.Mean(), res.Windows)
	}
	fmt.Fprintln(log)
	for _, r := range runs {
		fmt.Fprintf(log, "  timed run %.3f s, ns_per_simtick %.0f\n", r.wall.Seconds(), float64(r.wall.Nanoseconds())/fullHorizon)
	}
	reportProblems(log, bad)
	return out, nil
}

func reportProblems(log io.Writer, bad []string) {
	for _, b := range bad {
		fmt.Fprintf(log, "  INCORRECT: %s\n", b)
	}
}

func mapRuns(runs []timedRun, f func(timedRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
