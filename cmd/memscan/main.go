// Command memscan boots a demonstration machine, drives some server
// traffic, and prints the scanmemory-style report: every copy of the
// private key in physical memory with its address, part, allocation state
// and owning processes — the output of the paper's loadable kernel module.
//
// Usage:
//
//	memscan -server ssh -level none -conns 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memshield"
	"memshield/internal/protect"
	"memshield/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "memscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("memscan", flag.ContinueOnError)
	var (
		server  = fs.String("server", "ssh", "server to run: ssh or apache")
		level   = fs.String("level", "none", "protection level")
		conns   = fs.Int("conns", 8, "connections to open (half are closed again before the scan)")
		memMB   = fs.Int("mem-mb", 32, "simulated physical memory in MiB")
		seed    = fs.Int64("seed", 2007, "seed")
		doTrace = fs.Bool("trace", false, "record kernel events and explain each unallocated copy")
		workers = fs.Int("scan-workers", 0, "scan shard fan-out (0 = one per CPU; output is identical at any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 0 {
		return fmt.Errorf("-conns must not be negative, got %d", *conns)
	}
	lvl, err := protect.ParseLevel(*level)
	if err != nil {
		return err
	}
	traceCap := 0
	if *doTrace {
		traceCap = 1 << 16
	}
	m, err := memshield.NewMachine(memshield.MachineConfig{
		MemoryMB: *memMB, Protection: lvl, Seed: *seed, TraceEvents: traceCap,
		ScanWorkers: *workers,
	})
	if err != nil {
		return err
	}
	key, err := m.InstallKey("/etc/ssl/private/server.key", 512)
	if err != nil {
		return err
	}
	var connect func() (int, error)
	var disconnect func(int) error
	switch *server {
	case "ssh", "openssh":
		s, err := m.StartSSH(lvl, key.Path)
		if err != nil {
			return err
		}
		connect, disconnect = s.Connect, s.Disconnect
	case "apache", "httpd":
		s, err := m.StartApache(lvl, key.Path)
		if err != nil {
			return err
		}
		connect, disconnect = s.Connect, s.Disconnect
	default:
		return fmt.Errorf("unknown server %q", *server)
	}
	ids := make([]int, 0, *conns)
	for i := 0; i < *conns; i++ {
		id, err := connect()
		if err != nil {
			return err
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:len(ids)/2] {
		if err := disconnect(id); err != nil {
			return err
		}
	}

	matches := m.ScanMatches(key)
	rows := make([][]string, 0, len(matches))
	for _, match := range matches {
		state := "unallocated"
		if match.Allocated {
			state = "allocated"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%#010x", uint64(match.Addr)),
			match.Part.String(),
			state,
			match.Owner.String(),
			fmt.Sprintf("%v", match.PIDs),
		})
	}
	fmt.Fprint(out, report.RenderTable(
		fmt.Sprintf("Key copies in physical memory (%s, level %s, %d conns opened, %d closed)",
			*server, lvl, *conns, len(ids)/2),
		[]string{"address", "part", "state", "owner", "pids"}, rows))
	sum := m.Scan(key)
	fmt.Fprintf(out, "\ntotal=%d allocated=%d unallocated=%d by-part=%v\n",
		sum.Total, sum.Allocated, sum.Unallocated, sum.ByPart)

	if *doTrace {
		ring := m.Kernel().Trace()
		fmt.Fprintf(out, "\nkernel events recorded: %d (by kind: %v)\n",
			ring.Total(), ring.CountByKind())
		// Explain the first few ghosts: the event history of their pages
		// shows how the key got into unallocated memory.
		explained := 0
		for _, match := range matches {
			if match.Allocated || explained >= 3 {
				continue
			}
			explained++
			fmt.Fprintf(out, "history of page %d (holds %s, unallocated):\n",
				match.Addr.Page(), match.Part)
			hist := ring.PageHistory(match.Addr.Page())
			from := 0
			if len(hist) > 6 {
				from = len(hist) - 6
			}
			for _, e := range hist[from:] {
				fmt.Fprintf(out, "  %s\n", e)
			}
		}
	}
	return nil
}
