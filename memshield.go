// Package memshield is a simulation laboratory for studying — and
// defending against — memory disclosure attacks on cryptographic keys,
// reproducing Harrison & Xu, "Protecting Cryptographic Keys from Memory
// Disclosure Attacks" (DSN 2007).
//
// The package boots a deterministic simulated machine (physical memory,
// buddy page allocator, virtual memory with copy-on-write fork and mlock,
// page cache, filesystem with the ext2 mkdir leak) and runs simulated
// OpenSSH and Apache-prefork servers whose RSA private keys live, byte for
// byte, inside that machine's memory. On top of it you can:
//
//   - scan physical memory for key copies, classified allocated vs
//     unallocated and attributed to processes (the paper's scanmemory tool);
//   - mount the paper's two disclosure attacks (the ext2 directory leak and
//     the tty ~50%-of-RAM dump) and measure what they recover;
//   - deploy the paper's countermeasures — application/library-level key
//     alignment over COW + mlock, kernel zero-on-free, and the integrated
//     solution with O_NOCACHE PEM eviction — and verify the key collapses
//     to a single, unswappable, uncacheable physical copy;
//   - go one step beyond the paper with sealed key memory
//     (ProtectionSealed): the aligned region stays encrypted at rest and
//     only decrypts inside each private operation's working window, so
//     even that single copy is invisible to a scanner between operations;
//   - regenerate every figure of the paper's evaluation via RunFigure.
//
// Quick start:
//
//	m, err := memshield.NewMachine(memshield.MachineConfig{MemoryMB: 32})
//	key, err := m.InstallKey("/etc/ssh/host.key", 512)
//	srv, err := m.StartSSH(memshield.ProtectionNone, key.Path)
//	id, _ := srv.Connect()
//	fmt.Println(m.Scan(key).Total) // copies of the key in memory
package memshield

import (
	"bytes"
	"fmt"
	"runtime"

	"memshield/internal/attack/ext2leak"
	"memshield/internal/attack/ttyleak"
	"memshield/internal/core"
	"memshield/internal/crypto/rsakey"
	"memshield/internal/figures"
	"memshield/internal/host"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/keyfinder"
	"memshield/internal/mem"
	"memshield/internal/protect"
	"memshield/internal/scan"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// Protection re-exports the countermeasure levels of the paper's Section 4.
type Protection = protect.Level

// Protection levels.
const (
	// ProtectionNone is the unpatched system of the threat assessment.
	ProtectionNone = protect.LevelNone
	// ProtectionApp: the application calls RSA_memory_align itself.
	ProtectionApp = protect.LevelApp
	// ProtectionLibrary: the patched d2i_PrivateKey aligns automatically.
	ProtectionLibrary = protect.LevelLibrary
	// ProtectionKernel: pages are zeroed as they are freed.
	ProtectionKernel = protect.LevelKernel
	// ProtectionIntegrated: library + kernel + O_NOCACHE PEM eviction —
	// the paper's recommended configuration.
	ProtectionIntegrated = protect.LevelIntegrated
	// ProtectionSecureDealloc: the Chow et al. deferred-zeroing baseline.
	ProtectionSecureDealloc = protect.LevelSecureDealloc
	// ProtectionSealed: everything the integrated level does, plus the
	// aligned key region is kept AEAD-encrypted between operations; the
	// plaintext exists only inside a private operation's decrypt window,
	// so a scanner outside that window finds zero key copies.
	ProtectionSealed = protect.LevelSealed
)

// MachineConfig describes a machine to boot.
type MachineConfig struct {
	// MemoryMB is the physical memory size (default 32).
	MemoryMB int
	// SwapMB is the swap device size (default 1).
	SwapMB int
	// EncryptSwap enables Provos-style swap encryption.
	EncryptSwap bool
	// Protection selects the kernel-side policy; the per-server levels
	// passed to StartSSH/StartApache must match or strengthen it. Use the
	// same level in both places (the helpers on Machine do).
	Protection Protection
	// Seed makes the machine deterministic (free-list scrambling, keys).
	Seed int64
	// TraceEvents, when positive, enables the kernel event tracer with a
	// ring of that capacity; read it back via Kernel().Trace().
	TraceEvents int
	// ScanWorkers is the shard fan-out for Scan/ScanMatches (0 = one per
	// CPU). Any value yields byte-identical results (DESIGN.md §9).
	ScanWorkers int
}

// Machine is one booted simulated computer.
type Machine struct {
	k           *kernel.Kernel
	seed        int64
	protection  Protection
	scanWorkers int
	// installs and provisions count InstallKey and ProvisionHSMKey calls.
	installs, provisions int64
	// scanners caches one incremental scanner per installed key, so
	// repeated Scan calls only re-walk frames written since the last call.
	scanners map[*Key]*scan.Scanner
}

// NewMachine boots a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if cfg.MemoryMB == 0 {
		cfg.MemoryMB = 32
	}
	if cfg.SwapMB == 0 {
		cfg.SwapMB = 1
	}
	if !cfg.Protection.Valid() {
		cfg.Protection = ProtectionNone
	}
	k, err := host.Boot(kernel.Config{
		MemPages:      cfg.MemoryMB * 1024 * 1024 / mem.PageSize,
		SwapPages:     cfg.SwapMB * 1024 * 1024 / mem.PageSize,
		EncryptSwap:   cfg.EncryptSwap,
		DeallocPolicy: cfg.Protection.KernelPolicy(),
		TraceEvents:   cfg.TraceEvents,
	}, cfg.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("memshield: %w", err)
	}
	return &Machine{
		k:           k,
		seed:        cfg.Seed,
		protection:  cfg.Protection,
		scanWorkers: cfg.ScanWorkers,
		scanners:    make(map[*Key]*scan.Scanner),
	}, nil
}

// Kernel exposes the underlying simulated kernel for advanced use (direct
// VM, page-cache or allocator access).
func (m *Machine) Kernel() *kernel.Kernel { return m.k }

// Protection returns the machine's kernel-side protection level.
func (m *Machine) Protection() Protection { return m.protection }

// Key is an installed RSA private key: the real key material plus where its
// PEM file lives on the simulated disk.
type Key struct {
	Private *rsakey.PrivateKey
	Path    string
}

// Patterns returns the scanner patterns (d, p, q, PEM) for the key.
func (k *Key) Patterns() []scan.Pattern { return scan.PatternsFor(k.Private) }

// InstallKey generates a fresh RSA key of the given modulus size and writes
// its PEM file at path on the simulated filesystem.
func (m *Machine) InstallKey(path string, bits int) (*Key, error) {
	key, err := rsakey.Generate(stats.NewReader(m.keySeed(100, &m.installs)), bits)
	if err != nil {
		return nil, fmt.Errorf("memshield: %w", err)
	}
	if err := host.InstallKey(m.k, path, key); err != nil {
		return nil, fmt.Errorf("memshield: %w", err)
	}
	return &Key{Private: key, Path: path}, nil
}

// keySeed returns the key seed for one more call counted by calls:
// seed+base for the first call, and DeriveSeed(seed+base, n) for call n
// after it, so every call gets its own key.
func (m *Machine) keySeed(base int64, calls *int64) int64 {
	seed := m.seed + base
	if *calls > 0 {
		seed = stats.DeriveSeed(seed, *calls)
	}
	*calls++
	return seed
}

// Scan searches the machine's entire physical memory for copies of the key
// and summarizes what it finds — the paper's scanmemory tool.
func (m *Machine) Scan(key *Key) scan.Summary {
	return scan.Summarize(m.ScanMatches(key))
}

// ScanMatches returns the raw per-copy matches (address, part,
// allocated/unallocated, owning PIDs). The machine keeps one incremental
// scanner per key, so a rescan after little memory activity costs
// O(pages written since the last scan), not O(memory).
func (m *Machine) ScanMatches(key *Key) []scan.Match {
	sc := m.scanners[key]
	if sc == nil {
		sc = scan.NewWith(m.k, key.Patterns(), scan.Options{Workers: m.scanWorkers})
		m.scanners[key] = sc
	}
	return sc.Scan()
}

// StartSSH starts a simulated OpenSSH server using the key previously
// installed at keyPath.
func (m *Machine) StartSSH(level Protection, keyPath string) (*sshd.Server, error) {
	return sshd.Start(m.k, sshd.Config{KeyPath: keyPath, Level: level, Seed: m.seed + 2})
}

// StartApache starts a simulated Apache prefork server using the key
// previously installed at keyPath.
func (m *Machine) StartApache(level Protection, keyPath string) (*httpd.Server, error) {
	return httpd.Start(m.k, httpd.Config{KeyPath: keyPath, Level: level, Seed: m.seed + 2})
}

// RunExt2Attack mounts the paper's ext2 directory-leak attack: create dirs
// directories, capture their leaked block tails, and search the haul for
// the key.
func (m *Machine) RunExt2Attack(key *Key, dirs int) (ext2leak.Result, error) {
	return ext2leak.Run(m.k, key.Patterns(), dirs, int(m.seed))
}

// RunTTYAttack mounts the paper's tty memory-dump attack: disclose ~50% of
// physical memory at a random placement and search it for the key. trial
// seeds the dump placement.
func (m *Machine) RunTTYAttack(key *Key, trial int64) (ttyleak.Result, error) {
	return ttyleak.Run(m.k, key.Patterns(), stats.NewRand(m.seed+trial), ttyleak.Config{})
}

// RunTTYAttackFraction is RunTTYAttack with an explicit disclosed fraction
// of memory (e.g. 1.0 for a full dump).
func (m *Machine) RunTTYAttackFraction(key *Key, trial int64, fraction float64) (ttyleak.Result, error) {
	return ttyleak.Run(m.k, key.Patterns(), stats.NewRand(m.seed+trial),
		ttyleak.Config{Fraction: fraction, Jitter: 0.0001})
}

// KeyRecovery re-exports the public-key-only recovery result.
type (
	// KeyRecovery is the outcome of RecoverKey.
	KeyRecovery = keyfinder.Result
	// RecoveryOptions tunes RecoverKey.
	RecoveryOptions = keyfinder.Options
)

// RecoverKey reconstructs a private key from a captured memory image given
// only its PUBLIC half — the realistic attacker model (the scanner and the
// attack Summaries use known-pattern search, which only the experimenter
// can do). It tries PEM armor, raw DER, and factor scanning; any recovered
// key is validated end to end. Use DumpMemory (or an attack's capture) to
// obtain an image.
func RecoverKey(image []byte, key *Key, opts RecoveryOptions) KeyRecovery {
	return keyfinder.Search(image, key.Private.PublicKey, opts)
}

// DumpMemory returns a copy of the machine's entire physical memory (what
// an unbounded disclosure would capture). The copy is the caller's: later
// writes on the machine do not change it, and it outlives the machine.
func (m *Machine) DumpMemory() []byte {
	phys := m.k.Mem()
	view, err := phys.View(0, phys.Size())
	if err != nil {
		return nil
	}
	image := bytes.Clone(view)
	runtime.KeepAlive(phys) // view aliases phys's array, which its finalizer could unmap
	return image
}

// AuditReport re-exports the protection auditor's findings.
type AuditReport = core.Report

// Audit checks the machine's deployed protection level's guarantees (zero
// unallocated copies, single mlocked allocated copy, evicted PEM, clean
// swap — whichever the level promises) against the scanner's ground truth.
func (m *Machine) Audit(key *Key) *AuditReport {
	return core.New(m.k, m.protection).Audit(key.Patterns())
}

// VerifyProtection returns an error describing every guarantee of the
// machine's protection level that currently fails to hold, or nil.
func (m *Machine) VerifyProtection(key *Key) error {
	return core.New(m.k, m.protection).Verify(key.Patterns())
}

// Tick advances simulated time (drains secure-deallocation queues).
func (m *Machine) Tick() { m.k.Tick() }

// FigureConfig configures figure regeneration.
type FigureConfig = figures.Config

// RunFigure regenerates a paper figure by catalog ID ("fig1" … "fig27",
// "ext2-reexam", "ablation") and returns its rendered text. FigureIDs
// lists the valid IDs.
func RunFigure(id string, cfg FigureConfig) (string, error) {
	return figures.Run(id, cfg)
}

// FigureIDs lists the experiment catalog.
func FigureIDs() []string { return figures.IDs() }

// HSM re-exports: the paper's "special hardware" endpoint — a simulated
// cryptographic coprocessor holding keys outside addressable RAM.
type (
	// HSMModule is a simulated hardware security module.
	HSMModule = hsm.Module
	// HSMSlot binds a device to one provisioned key slot.
	HSMSlot = hsm.Slot
)

// ProvisionHSMKey generates a fresh key directly inside a new HSM — it is
// never written to the simulated filesystem or any process memory — and
// returns both the Key descriptor (so the scanner can verify the machine
// holds no trace of it) and the device slot.
func (m *Machine) ProvisionHSMKey(bits int) (*Key, *HSMSlot, error) {
	key, err := rsakey.Generate(stats.NewReader(m.keySeed(200, &m.provisions)), bits)
	if err != nil {
		return nil, nil, fmt.Errorf("memshield: %w", err)
	}
	device := hsm.New()
	slot, err := device.Import(key)
	if err != nil {
		return nil, nil, fmt.Errorf("memshield: %w", err)
	}
	return &Key{Private: key}, &HSMSlot{Module: device, ID: slot}, nil
}

// StartSSHWithHSM starts an OpenSSH server whose host key lives inside the
// HSM slot; no key byte ever enters simulated memory.
func (m *Machine) StartSSHWithHSM(slot *HSMSlot) (*sshd.Server, error) {
	return sshd.Start(m.k, sshd.Config{Level: ProtectionIntegrated, HSM: slot, Seed: m.seed + 2})
}
