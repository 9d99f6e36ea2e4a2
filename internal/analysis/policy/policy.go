// Package policy is the single declarative source of truth for which
// packages hold which standing exemptions from the memlint analyzers
// (ROADMAP item 3: the allowlists used to be hardcoded in detrand,
// physaccess and keycopy separately). An analyzer never carries its own
// package list; it asks Allowed. Growing the table is a reviewed policy
// change, not an analyzer edit — and the suppression budget below makes
// inline //memlint:allow growth a reviewed change too.
package policy

import "strings"

// A Perm is one analyzer-specific permission a package can hold.
type Perm int

const (
	// AmbientEntropy (detrand): the package may touch ambient
	// time/randomness machinery directly.
	AmbientEntropy Perm = iota
	// PhysRead (physaccess): the package may call Memory.View — it
	// models disclosure, reading captured bytes. Writes through views
	// stay forbidden everywhere.
	PhysRead
	// KeyMaterial (keycopy): handling or retaining private-key bytes is
	// the package's charter, so the "exactly one copy" taint rules do
	// not apply inside it.
	KeyMaterial
	// Panics (nopanic): the package may call panic() directly — reserved
	// for invariant violations that can only mean a simulator bug, never
	// for conditions reachable under fault injection. Everything else on
	// the simulated machine must surface failures as errors the caller
	// can fail closed on.
	Panics
	// RetainKeys (keylifetime): the package may hold key-material byte
	// slices past function exit without zeroizing them, because retaining
	// them IS its charter — the scanner keeps search patterns, the key
	// finders keep what they recover, the attacks keep what they capture.
	// Everywhere else the keylifetime verifier demands that every value
	// tainted by a //memlint:source reaches a //memlint:sink (or is
	// returned to the caller, transferring the obligation) on every
	// control-flow path. Note this is deliberately NOT implied by
	// KeyMaterial: the crypto and ssl packages own key bytes by charter
	// but still must scrub their transient native copies.
	RetainKeys
	// OpenWindow (sealwindow): the package may touch plaintext key bytes
	// outside a //memlint:window callback, because it implements the
	// unseal→reseal mechanism itself — the window discipline cannot be
	// stated from inside the code that creates windows.
	OpenWindow
)

// An Entry grants one package (or subtree) its permissions. Why is
// mandatory: an exemption without a reason rots.
type Entry struct {
	// Path is the import path; a trailing "/..." matches the subtree.
	Path  string
	Perms []Perm
	Why   string
}

// Table is the committed exemption table, one entry per package.
var Table = []Entry{
	{"memshield", []Perm{PhysRead},
		"public facade: DumpMemory copies a full capture out to callers"},
	{"memshield/internal/mem", []Perm{PhysRead, Panics},
		"owns the physical-memory array; Frame panics on an out-of-range " +
			"frame number because those are produced only by the allocator — " +
			"an invalid one is a simulator bug, not a runtime condition"},
	{"memshield/internal/stats", []Perm{AmbientEntropy},
		"the one place that constructs seeded randomness sources"},
	{"memshield/internal/crypto/rsakey", []Perm{AmbientEntropy, KeyMaterial},
		"documented deterministic prime search; marshals its own key bytes"},
	{"memshield/internal/crypto/der", []Perm{KeyMaterial},
		"DER encode/decode of key structures is its charter"},
	{"memshield/internal/crypto/pemfile", []Perm{KeyMaterial},
		"PEM armor encode/decode of key payloads is its charter"},
	{"memshield/internal/crypto/seal", []Perm{OpenWindow},
		"implements the unseal→reseal mechanism the window discipline is " +
			"defined by; its own accesses are the window edges"},
	{"memshield/internal/ssl", []Perm{KeyMaterial},
		"simulated OpenSSL layer: BIGNUMs and key files are its subject"},
	{"memshield/internal/scan", []Perm{PhysRead, KeyMaterial, RetainKeys},
		"the scanmemory LKM analogue; retains search patterns by design"},
	{"memshield/internal/keyfinder", []Perm{PhysRead, KeyMaterial, RetainKeys},
		"public-key-only recovery over captures; retains what it recovers"},
	{"memshield/internal/attack/...", []Perm{PhysRead, RetainKeys},
		"the disclosure attacks themselves read captured memory and keep " +
			"what they harvest"},
	{"memshield/cmd/memlint", []Perm{AmbientEntropy},
		"host-side lint driver, not simulated-machine code: the -timings " +
			"phase breakdown for the CI artifact reads the wall clock"},
	{"memshield/internal/analysis/dataflow", []Perm{AmbientEntropy},
		"host-side analysis engine, not simulated-machine code: the " +
			"points-to solver self-times its solves for the -timings artifact"},
}

// SimSyscallSurface lists the import-path prefixes of the simulated
// kernel/libc syscall layer, the target surface of simerrcheck. Packages
// on the surface may discard their own errors where they prove them
// impossible.
var SimSyscallSurface = []string{
	"memshield/internal/mem",
	"memshield/internal/kernel", // includes alloc, vm, fs, pagecache, proc
	"memshield/internal/libc",
}

// SimMachinePackages lists the import-path prefixes of the simulated
// machine itself, the target surface of nopanic: the layers underneath the
// fault injector, where every failure must surface as an error the caller
// can fail closed on — a panic would turn an injected fault into a crash
// instead of a refusal or a degraded status.
var SimMachinePackages = []string{
	"memshield/internal/mem",
	"memshield/internal/kernel", // includes alloc, vm, fs, pagecache, proc
	"memshield/internal/libc",
	"memshield/internal/ssl",
	// The supervisor and its soak driver sit above the fault injector but
	// below the operator: a panic there would turn a storm of injected
	// faults into a crash instead of a refusal, so they carry the same
	// no-panic obligation as the machine layers they drive.
	"memshield/internal/supervise",
	"memshield/cmd/soak",
	// The fleet engine drives thousands of supervised machines through
	// long storms and timelines: a panic in its scheduler or storm loop
	// would take the whole fleet down on one injected fault, so it holds
	// the same obligation (its event heap is hand-rolled with ok-bool
	// returns for exactly this reason).
	"memshield/internal/fleet",
	// Every driver above boots its machines and holds its servers through
	// internal/host, fleet and the supervisor included, so a panic there
	// would fail all of them at once.
	"memshield/internal/host",
}

// SuppressionBudget caps the number of inline //memlint:allow directives
// in live (non-testdata) code. Adding a suppression means raising this
// number in the same change — the growth is reviewed here, next to the
// table it bypasses. The fixtures under testdata/ that document the
// directive syntax are exempt.
const SuppressionBudget = 0

// Allowed reports whether the package at pkgPath holds p. A "_test"
// suffix (external test package variant) inherits the plain package's
// permissions.
func Allowed(pkgPath string, p Perm) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	for _, e := range Table {
		if !matches(e.Path, pkgPath) {
			continue
		}
		for _, q := range e.Perms {
			if q == p {
				return true
			}
		}
	}
	return false
}

// OnSimSyscallSurface reports whether pkgPath is part of the simulated
// syscall layer ("_test" variants included).
func OnSimSyscallSurface(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	for _, p := range SimSyscallSurface {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// OnSimMachine reports whether pkgPath is part of the simulated machine
// ("_test" variants included).
func OnSimMachine(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	for _, p := range SimMachinePackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func matches(pattern, pkgPath string) bool {
	if tree, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == tree || strings.HasPrefix(pkgPath, tree+"/")
	}
	return pkgPath == pattern
}
