package main

import (
	"fmt"
	"io"
	"time"

	"memshield/internal/fleet"
	"memshield/internal/kernel/alloc"
	"memshield/internal/stats"
)

// probeSampleEvery is the scan cadence of the extra scanning replay on
// workloads that do not scan themselves.
const probeSampleEvery = 10

// runTraced produces the per-layer metrics of one workload: an untraced
// timed fleet run for the op counts and wall time, direct probes, and
// replays of one machine with the recorder off and on, paired until the
// budget is spent (at least one pair).
func runTraced(w workload, seed int64, budget time.Duration, spansPath string, log io.Writer) (result, error) {
	if err := warmUp(w, seed); err != nil {
		return result{}, err
	}
	start := time.Now()
	timed, err := measure(w.config(seed, fullHorizon))
	if err != nil {
		return result{}, fmt.Errorf("timed run: %w", err)
	}
	bad := checkResult(w, seed, timed.res)

	one := w.config(seed, fullHorizon)
	one.Machines = 1
	fleetOne, err := fleet.Run(one)
	if err != nil {
		return result{}, fmt.Errorf("one-machine run: %w", err)
	}
	probes, err := runProbes(one)
	if err != nil {
		return result{}, err
	}
	// A workload that does not scan gets one extra replay that scans every
	// probeSampleEvery ticks, so the scan layer is measured everywhere
	// without scans disturbing the replays the ledger is built from.
	rec, scanRec := newRecorder(), newRecorder()
	var scanFingerprint uint64
	if w.SampleEvery == 0 {
		scanCfg := one
		scanCfg.SampleEvery = probeSampleEvery
		out, err := replay(scanCfg, scanRec)
		if err != nil {
			return result{}, err
		}
		scanFingerprint = out.Fingerprint
	} else {
		scanRec = rec
	}

	var offWalls, onWalls []float64
	var first replayOutput
	for pass := 0; ; pass++ {
		passStart := time.Now()
		order := []*recorder{nil, rec}
		if pass%2 == 1 { // alternate which side runs first
			order[0], order[1] = rec, nil
		}
		for _, r := range order {
			t := time.Now()
			out, err := replay(one, r)
			if err != nil {
				return result{}, err
			}
			if r == nil {
				offWalls = append(offWalls, float64(time.Since(t)))
			} else {
				onWalls = append(onWalls, float64(time.Since(t)))
			}
			if len(offWalls)+len(onWalls) == 1 {
				first = out
			} else if !sameOutput(first, out) {
				bad = append(bad, fmt.Sprintf("replay pass %d (recorder on: %v) changed the simulated outputs", pass, r != nil))
			}
		}
		if time.Since(start)+time.Since(passStart) > budget {
			break
		}
	}
	if got, want := uint64(stats.DeriveSeed(0, int64(first.Fingerprint))), fleetOne.Fingerprint; got != want {
		bad = append(bad, fmt.Sprintf("replay fingerprint %#x, one-machine fleet %#x", got, want))
	}
	if scanRec != rec && scanFingerprint != first.Fingerprint {
		bad = append(bad, fmt.Sprintf("scanning replay fingerprint %#x, replay %#x", scanFingerprint, first.Fingerprint))
	}
	if first.Errors != 0 {
		bad = append(bad, fmt.Sprintf("replay had %d failed operations", first.Errors))
	}
	if spansPath != "" {
		if err := rec.writeJSONL(spansPath); err != nil {
			return result{}, err
		}
	}

	ops, scanOps := byName(rec.spans), byName(scanRec.spans)
	passes := float64(len(onWalls))
	m := map[string]metricValue{}
	put := func(name, unit string, v float64) { m[name] = metricValue{v, unit} }
	timing := func(name string, o *opStats, hi string, q float64, scale float64, unit string) {
		put(name+".p50", unit, o.quantile(0.5)/scale)
		put(name+"."+hi, unit, o.quantile(q)/scale)
		put(name+".n", "count", float64(o.n()))
	}
	const us, ms = 1e3, 1e6
	timing("server.connect_us", ops[spConnect], "p99", 0.99, us, "us")
	timing("server.transfer_us", ops[spTransfer], "p99", 0.99, us, "us")
	timing("server.disconnect_us", ops[spDisconnect], "p99", 0.99, us, "us")
	timing("server.maintain_us", ops[spMaintain], "p99", 0.99, us, "us")
	timing("scan.window_ms", scanOps[spScan], "p90", 0.90, ms, "ms")

	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	connects, disconnects := float64(ops[spConnect].n()), float64(ops[spDisconnect].n())
	put("server.go_bytes_per_connect", "B", per(float64(rec.delta(spConnect).GoBytes), connects))
	put("alloc.allocs_per_connect", "count", per(float64(rec.delta(spConnect).Allocs), connects))
	put("alloc.frees_per_disconnect", "count", per(float64(rec.delta(spDisconnect).Frees), disconnects))
	put("alloc.pages_zeroed_per_disconnect", "count", per(float64(rec.delta(spDisconnect).PagesZeroed), disconnects))
	put("pagecache.misses_per_connect", "count", per(float64(rec.delta(spConnect).CacheMisses), connects))
	var all counters
	for _, c := range rec.deltas {
		all.add(*c)
	}
	put("pagecache.hit_ratio", "ratio", per(float64(all.CacheHits), float64(all.CacheHits+all.CacheMisses)))
	sc := scanRec.delta(spScan)
	put("scan.frames_scanned_per_window", "count", per(float64(sc.FramesScanned), float64(scanOps[spScan].n())))
	put("scan.rewalk_ratio", "ratio", per(float64(sc.FramesScanned), float64(sc.FramesScanned+sc.FramesCached)))
	put("kernel.tick_ns", "ns", ops[spTick].mean())
	put("setup.boot_ms", "ms", ops[spKernelNew].total()/passes/ms)
	put("setup.keygen_ms", "ms", ops[spKeygen].total()/passes/ms)
	put("setup.scramble_ms", "ms", ops[spScramble].total()/passes/ms)
	put("setup.server_start_ms", "ms", ops[spStart].total()/passes/ms)

	put("ssl.private_op_us", "us", probes.privateOp.quantile(0.5)/us)
	put("ssl.d2i_us", "us", probes.d2i.quantile(0.5)/us)
	put("seal.window_us", "us", (probes.sealedOp.quantile(0.5)-probes.privateOp.quantile(0.5))/us)
	put("seal.unseals_per_handshake", "count", probes.unsealsPerOp)
	put("libc.chunk_cycle_us", "us", probes.chunk.quantile(0.5)/us)
	put("stats.payload_rand_us", "us", probes.payloadRand.quantile(0.5)/us)
	put("vm.fork_exit_us", "us", probes.forkExit.quantile(0.5)/us)
	put("alloc.page_cycle_ns.retain", "ns", probes.pageCycle[alloc.PolicyRetain])
	put("alloc.page_cycle_ns.zero_on_free", "ns", probes.pageCycle[alloc.PolicyZeroOnFree])

	explained := ledger(log, timed, ops)
	put("fleet.explained_frac", "ratio", explained)
	put("trace.overhead_frac", "ratio", median(onWalls)/median(offWalls)-1)
	fmt.Fprintf(log, "  replay: %d passes each way, recorder off %.3f s, on %.3f s (median)\n",
		len(onWalls), median(offWalls)/1e9, median(onWalls)/1e9)
	reportProblems(log, bad)
	return result{
		Correct: len(bad) == 0, Attempted: timed.res.Arrivals, Failed: timed.res.Errors + timed.res.Shed,
		Metrics: m,
	}, nil
}

// ledger attributes the timed run's wall time to layer calls: each op's
// count in the timed fleet result times its mean traced self time. It
// prints the table and returns the explained fraction of wall time ×
// workers; the rest is the fleet engine and work no span covers.
func ledger(log io.Writer, timed timedRun, ops map[string]*opStats) float64 {
	res, cfg := timed.res, timed.res.Config
	machines := float64(cfg.Machines)
	tenants := machines * float64(cfg.Tenants)
	connects := float64(res.Arrivals - res.Shed)
	var maintains float64
	if cfg.MaintainEvery > 0 {
		maintains = tenants * float64((cfg.Horizon+1)/cfg.MaintainEvery)
	}
	rows := []struct {
		op    string
		count float64
	}{
		{spKernelNew, machines},
		{spKeygen, tenants},
		{spScramble, machines},
		{spStart, tenants},
		{spConnect, connects},
		{spTransfer, float64(res.Churns) + connects},
		{spDisconnect, float64(res.Completed) + float64(res.FinalOpen)},
		{spMaintain, maintains},
		{spTick, machines * float64(cfg.Horizon+2)},
		{spScan, float64(res.Windows)},
		{spStop, tenants},
	}
	denom := float64(timed.wall.Nanoseconds()) * float64(cfg.Workers)
	fmt.Fprintf(log, "  ledger: timed run %.3f s x %d workers = %.3f worker-s\n",
		timed.wall.Seconds(), cfg.Workers, denom/1e9)
	fmt.Fprintf(log, "  %-20s %12s %14s %10s %8s\n", "op", "count", "self us/op", "worker-s", "share")
	var explained float64
	for _, r := range rows {
		mean := ops[r.op].mean()
		total := r.count * mean
		explained += total
		fmt.Fprintf(log, "  %-20s %12.0f %14.3f %10.3f %7.2f%%\n", r.op, r.count, mean/1e3, total/1e9, 100*total/denom)
	}
	fmt.Fprintf(log, "  %-20s %12s %14s %10.3f %7.2f%%\n", "explained", "", "", explained/1e9, 100*explained/denom)
	fmt.Fprintf(log, "  %-20s %12s %14s %10.3f %7.2f%%\n", "residual", "", "", (denom-explained)/1e9, 100*(denom-explained)/denom)
	return explained / denom
}
