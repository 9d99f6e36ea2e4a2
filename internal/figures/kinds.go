package figures

import (
	"fmt"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/sim"
	"memshield/internal/stats"
)

// ServerKind aliases sim.ServerKind for the figures API.
type ServerKind = sim.ServerKind

// Server kinds, re-exported for callers of this package.
const (
	KindSSH    = sim.KindSSH
	KindApache = sim.KindApache
)

// protectLevel aliases protect.Level for closure signatures.
type protectLevel = protect.Level

// Level aliases, so the catalog literals read like the paper.
const (
	levelNone       = protect.LevelNone
	levelApp        = protect.LevelApp
	levelLibrary    = protect.LevelLibrary
	levelKernel     = protect.LevelKernel
	levelIntegrated = protect.LevelIntegrated
	levelSealed     = protect.LevelSealed
)

// keyPath is where sweeps install the server key.
const keyPath = "/etc/ssl/private/server.key"

// loadedServer is a machine with a running server and its scan patterns,
// ready to be attacked.
type loadedServer struct {
	k        *kernel.Kernel
	patterns []scan.Pattern
	srv      host.Server
	open     []int
}

// closeAll closes every open connection and runs pool maintenance. On
// Apache the prefork pool shrinks back towards MaxSpareServers once the
// load drops, dropping the reaped workers' key copies into unallocated
// memory — which is what the ext2 attack harvests in the Apache case.
func (ls *loadedServer) closeAll() error {
	for _, id := range ls.open {
		if err := ls.srv.Disconnect(id); err != nil {
			return err
		}
	}
	ls.open = nil
	return ls.srv.Maintain()
}

// disconnectOne closes one connection by ID, removing it from the open set.
func (ls *loadedServer) disconnectOne(id int) error {
	for i, x := range ls.open {
		if x == id {
			ls.open = append(ls.open[:i], ls.open[i+1:]...)
			break
		}
	}
	return ls.srv.Disconnect(id)
}

// scanSummary runs the memory scanner for ground truth.
func (ls *loadedServer) scanSummary() scan.Summary {
	return scan.Summarize(scan.New(ls.k, ls.patterns).Scan())
}

// settleActivityPages is how much unrelated allocation happens between the
// victim's churn and the attack. Single-page allocations all draw from the
// same small-block free population (roughly 1/16 of the machine, set by the
// boot scramble's holdout stride), so the activity is sized as a fixed
// share of that population — enough to recycle (and scrub) a realistic
// fraction of the stale key pages without implausibly wiping them out on
// small machines. 2 MiB on the paper's 256 MiB testbed.
func settleActivityPages(totalPages int) int {
	pages := totalPages / 128
	if pages < 16 {
		pages = 16
	}
	return pages
}

// settleBeforeAttack models what happens on a live machine between the
// victim's connection churn and the attacker's sampling: the freshly freed
// (key-laden) pages disperse off the LIFO top into the general pool,
// modest unrelated system activity recycles (and thereby scrubs) a share
// of them, and deferred-zeroing windows expire. Without this step the
// mkdir attack would implausibly harvest every copy ever freed, because
// they all sit in one clump at the top of the free lists. The seed is the
// cell's settle stream; the three phases get derived sub-streams.
func (ls *loadedServer) settleBeforeAttack(seed int64) error {
	if err := ls.k.MixFreeLists(subSeed(seed, 1)); err != nil {
		return err
	}
	if err := ls.k.RunBackgroundActivity(settleActivityPages(ls.k.Mem().NumPages()), subSeed(seed, 2)); err != nil {
		return err
	}
	ls.k.Tick()
	return ls.k.MixFreeLists(subSeed(seed, 3))
}

// buildLoadedServer boots a machine at the given level, starts the chosen
// server, and opens conns concurrent connections. The caller decides
// whether to close them (ext2 attack: connections closed first) or attack
// with them open (tty attack). The seed is the cell's build stream; key
// generation, the free-memory scramble and the server get derived
// sub-streams.
func buildLoadedServer(kind ServerKind, level protect.Level, memPages, keyBits, conns int, seed int64) (*loadedServer, error) {
	key, err := rsakey.Generate(stats.NewReader(subSeed(seed, 1)), keyBits)
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	k, err := host.Boot(kernel.Config{MemPages: memPages, DeallocPolicy: level.KernelPolicy()},
		subSeed(seed, 2), host.Key{Path: keyPath, Key: key})
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	ls := &loadedServer{k: k, patterns: scan.PatternsFor(key)}
	srvSeed := subSeed(seed, 3)
	switch kind {
	case KindSSH:
		s, err := sshd.Start(k, sshd.Config{KeyPath: keyPath, Level: level, Seed: srvSeed})
		if err != nil {
			return nil, err
		}
		ls.srv = host.SSHD{Server: s}
	case KindApache:
		s, err := httpd.Start(k, httpd.Config{
			KeyPath: keyPath, Level: level, Seed: srvSeed,
			MaxClients: conns + 8,
		})
		if err != nil {
			return nil, err
		}
		ls.srv = host.HTTPD{Server: s}
	default:
		return nil, fmt.Errorf("figures: unknown kind %v", kind)
	}
	for i := 0; i < conns; i++ {
		id, err := ls.srv.Connect()
		if err != nil {
			return nil, fmt.Errorf("figures: connect %d/%d: %w", i, conns, err)
		}
		ls.open = append(ls.open, id)
	}
	return ls, nil
}

// displayName returns the paper's server name for titles.
func displayName(kind ServerKind) string {
	switch kind {
	case KindSSH:
		return "OpenSSH"
	case KindApache:
		return "Apache"
	default:
		return kind.String()
	}
}

// timelineRunner adapts a timeline configuration into a catalog Run func.
func timelineRunner(kind ServerKind, level protect.Level) func(Config) (Rendered, error) {
	return func(c Config) (Rendered, error) {
		return Timeline(c, kind, level)
	}
}
