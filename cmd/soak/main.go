// Command soak drives seeded chaos storms against supervised servers:
// every fault site armed probabilistically, invariants checked at every
// tick (audit honest at the claimed level, no plaintext at rest under a
// sealed claim, allocator/VM bookkeeping consistent, recovery counters
// monotonic), and a deterministic event log that replays byte-identical
// from the seed at any worker count.
//
// With -fleet N the storms run in fleet mode instead: N machines under
// ONE fleet-level arbiter sharing a re-provision budget. Each machine's
// gate parks it on a fail-closed sealed-key destroy; between drive
// rounds the arbiter walks the machines serially in index order and
// grants resumes until the shared budget runs dry (internal/fleet).
//
// Usage:
//
//	soak -storms 8 -steps 200 -seed 2007
//	soak -server apache -level sealed -storms 4 -workers 4
//	soak -storms 8 -verify            # re-run serially, demand identical logs
//	soak -storms 8 -log events.log    # write the combined event log
//	soak -fleet 6 -rounds 8 -steps 40 -budget 2 -verify
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memshield/internal/fleet"
	"memshield/internal/host"
	"memshield/internal/protect"
	"memshield/internal/stats"
	"memshield/internal/supervise"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(1)
	}
}

func parseLevel(s string) (protect.Level, error) {
	for _, l := range protect.All() {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q (want none, application, library, kernel, integrated, secure-dealloc or sealed)", s)
}

func parseKind(s string) (host.Kind, error) {
	switch s {
	case "ssh", "sshd", "openssh":
		return host.KindSSHD, nil
	case "apache", "httpd":
		return host.KindHTTPD, nil
	default:
		return "", fmt.Errorf("unknown server %q (want ssh or apache)", s)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		server  = fs.String("server", "ssh", "server to soak: ssh or apache")
		level   = fs.String("level", "sealed", "protection level under storm")
		seed    = fs.Int64("seed", 2007, "master seed; storm i derives its own sub-seed")
		storms  = fs.Int("storms", 4, "number of independent storms")
		steps   = fs.Int("steps", 200, "workload steps per storm")
		workers = fs.Int("workers", 4, "worker pool size (results are worker-count invariant)")
		verify  = fs.Bool("verify", false, "re-run the sweep serially and fail on any byte difference")
		logPath = fs.String("log", "", "write the combined event log to this host file")
		fleetN  = fs.Int("fleet", 0, "fleet mode: machines under one shared re-provision budget (0 = classic storms)")
		rounds  = fs.Int("rounds", 8, "fleet mode: drive+grant rounds")
		budget  = fs.Int("budget", 0, "fleet mode: shared re-provision budget (0 = machines/2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := parseKind(*server)
	if err != nil {
		return err
	}
	lvl, err := parseLevel(*level)
	if err != nil {
		return err
	}
	if *fleetN > 0 {
		return runFleet(fleet.StormConfig{
			Machines: *fleetN, Rounds: *rounds, StepsPerRound: *steps,
			Kind: kind, Level: lvl, Seed: *seed, Budget: *budget,
			Workers: *workers,
		}, *verify, *logPath, out)
	}

	cfgs := make([]supervise.StormConfig, *storms)
	for i := range cfgs {
		cfgs[i] = supervise.StormConfig{
			Kind:  kind,
			Level: lvl,
			Seed:  stats.DeriveSeed(*seed, int64(i)),
			Steps: *steps,
		}
	}
	results, err := supervise.RunStorms(cfgs, *workers)
	if err != nil {
		return err
	}
	combined := combinedLog(results)

	if *verify {
		replay, err := supervise.RunStorms(cfgs, 1)
		if err != nil {
			return fmt.Errorf("verify replay: %w", err)
		}
		if again := combinedLog(replay); again != combined {
			return fmt.Errorf("verify: serial replay diverged from the workers=%d run", *workers)
		}
		fmt.Fprintf(out, "verify: %d storms replay byte-identical at workers=%d and workers=1\n", *storms, *workers)
	}

	if *logPath != "" {
		if err := os.WriteFile(*logPath, []byte(combined), 0o644); err != nil {
			return err
		}
	}

	var total supervise.Counters
	survived, refused, violated := 0, 0, 0
	for i, r := range results {
		if r.InvariantErr != "" {
			violated++
			fmt.Fprintf(out, "storm %d VIOLATION: %s\n", i, r.InvariantErr)
		}
		if r.Survived {
			survived++
		}
		if r.Refused {
			refused++
		}
		total.Retries += r.Counters.Retries
		total.BackoffTicks += r.Counters.BackoffTicks
		total.Recoveries += r.Counters.Recoveries
		total.Exhaustions += r.Counters.Exhaustions
		total.Reprovisions += r.Counters.Reprovisions
		total.Restarts += r.Counters.Restarts
		fmt.Fprintf(out, "storm %2d %s/%s seed=%d survived=%t refused=%t effective=%s gen=%d epoch=%d retries=%d recoveries=%d reprovisions=%d\n",
			i, r.Kind, r.Level, r.Seed, r.Survived, r.Refused, r.Effective,
			r.Generation, r.Epoch, r.Counters.Retries, r.Counters.Recoveries, r.Counters.Reprovisions)
	}
	fmt.Fprintf(out, "soak: %d storms (%d survived, %d refused), retries=%d backoff=%d recoveries=%d exhaustions=%d reprovisions=%d restarts=%d\n",
		len(results), survived, refused, total.Retries, total.BackoffTicks,
		total.Recoveries, total.Exhaustions, total.Reprovisions, total.Restarts)
	if violated > 0 {
		return fmt.Errorf("%d storm(s) violated invariants", violated)
	}
	return nil
}

// runFleet drives one fleet storm: parallel drive rounds, serial grant
// walks, shared budget. -verify re-runs the whole storm on one worker
// and demands the log replay byte-identical.
func runFleet(cfg fleet.StormConfig, verify bool, logPath string, out io.Writer) error {
	res, err := fleet.RunFleetStorm(cfg)
	if err != nil {
		return err
	}
	combined := strings.Join(res.Log, "\n") + "\n"

	if verify {
		serial := cfg
		serial.Workers = 1
		replay, err := fleet.RunFleetStorm(serial)
		if err != nil {
			return fmt.Errorf("verify replay: %w", err)
		}
		if replay.Fingerprint != res.Fingerprint || strings.Join(replay.Log, "\n")+"\n" != combined {
			return fmt.Errorf("verify: serial replay diverged from the workers=%d run", cfg.Workers)
		}
		fmt.Fprintf(out, "verify: fleet storm replays byte-identical at workers=%d and workers=1\n", cfg.Workers)
	}

	if logPath != "" {
		if err := os.WriteFile(logPath, []byte(combined), 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "fleet soak: %d machines, %d rounds (%d survived, %d parked, %d dead), parks=%d grants=%d denials=%d budget-left=%d fingerprint=%s\n",
		res.Machines, res.Rounds, res.Survivors, res.Parked, res.Dead,
		res.Parks, res.Grants, res.Denials, res.BudgetLeft, res.Fingerprint)
	if res.InvariantErr != "" {
		return fmt.Errorf("fleet storm violated invariants: %s", res.InvariantErr)
	}
	return nil
}

// combinedLog renders the sweep's event logs in storm order: RunStorms
// commits results in input order, so this string is byte-identical at
// any worker count.
func combinedLog(results []*supervise.StormResult) string {
	var b strings.Builder
	for i, r := range results {
		fmt.Fprintf(&b, "=== storm %d ===\n%s\n", i, strings.Join(r.Log, "\n"))
	}
	return b.String()
}
