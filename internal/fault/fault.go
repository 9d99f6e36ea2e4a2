// Package fault is the deterministic fault-injection subsystem for the
// simulated syscall surface. Every §5 invariant silently assumes that
// Mlock, zero-on-free, O_NOCACHE eviction and swap-out succeed; this
// package exists to make those operations fail on purpose, reproducibly,
// so the error half of the machine is exercised end to end and the
// fail-closed semantics of internal/protect and internal/core can be
// property-tested (see fault_matrix_test.go at the module root).
//
// A Plan names the Sites that may fail and how: a per-call probability, an
// explicit "fail the Nth call" schedule, or both. Decisions are pure
// functions of (plan seed, site, call ordinal), derived through
// stats.DeriveSeed — the same splitmix64 stream-splitting the figure
// harnesses use — so a plan replays byte-identically on any machine, at
// any -workers count, regardless of how calls to different sites
// interleave. There is no RNG state shared between sites: two sites never
// perturb each other's streams.
//
// One Injector belongs to one simulated machine (kernel.Config.FaultPlan
// wires it through alloc, vm, pagecache, fs and libc). Like the rest of
// the machine it is single-goroutine: the parallel figure runner gives
// every worker its own machine, and therefore its own injector.
package fault

import (
	"errors"
	"fmt"

	"memshield/internal/stats"
)

// ErrInjected marks every error produced by an Injector, so tests can
// separate injected failures from organic ones with errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Site names one injectable operation of the sim syscall surface.
type Site int

// Fault sites. The integer value doubles as the site's label in the
// per-site seed derivation, so reordering existing sites would change
// every plan's behaviour — append only.
const (
	// SiteAllocPages fails alloc.Allocator.AllocPages (and AllocPage)
	// with alloc.ErrOutOfMemory: physical allocation denied.
	SiteAllocPages Site = iota + 1
	// SiteZeroOnFree fails the page clearing that alloc's zeroing
	// policies perform (PolicyZeroOnFree inside Free, PolicySecureDealloc
	// inside Tick): the scrub the paper's kernel patch relies on.
	SiteZeroOnFree
	// SiteMlock fails vm.Manager.Mlock with vm.ErrMlockDenied: the
	// RLIMIT_MEMLOCK / EPERM denial that leaves a "protected" key page
	// swappable.
	SiteMlock
	// SiteSwapStore fails the swap-device write during vm swap-out with
	// vm.ErrSwapIO: an I/O error distinct from the device simply being
	// full (ErrNoSwapSpace), which small-swap configs produce naturally.
	SiteSwapStore
	// SiteEvict fails pagecache.Cache.Evict with pagecache.ErrEvictIO:
	// the O_NOCACHE removal path cannot scrub the file's pages.
	SiteEvict
	// SiteFSRead fails fs.FS.ReadFile with fs.ErrIO before any byte is
	// served: the backing device refused the read.
	SiteFSRead
	// SiteMalloc fails libc.Heap.Malloc with libc.ErrNoMem. Memalign maps
	// its region directly and does not consult it.
	SiteMalloc
	// SiteUnseal fails seal.Region decryption before any plaintext byte
	// is written back into the region: the key stays ciphertext and the
	// operation is refused (a transient denial, not a downgrade).
	SiteUnseal
	// SiteSeal fails seal.Region re-encryption at the close of a working
	// window, before any ciphertext byte is written. The fail-closed
	// response scrubs the open plaintext and destroys the region — the
	// region's zeroed pages leak, never the key contents.
	SiteSeal

	numSites
)

func (s Site) String() string {
	switch s {
	case SiteAllocPages:
		return "alloc.AllocPages"
	case SiteZeroOnFree:
		return "alloc.ZeroOnFree"
	case SiteMlock:
		return "vm.Mlock"
	case SiteSwapStore:
		return "vm.SwapStore"
	case SiteEvict:
		return "pagecache.Evict"
	case SiteFSRead:
		return "fs.ReadFile"
	case SiteMalloc:
		return "libc.Malloc"
	case SiteUnseal:
		return "seal.Unseal"
	case SiteSeal:
		return "seal.Reseal"
	default:
		return fmt.Sprintf("Site(%d)", int(s))
	}
}

// Transient reports whether an injected failure at this site leaves the
// faulted operation retryable: the fail-closed handling provably restored
// (or never perturbed) the state the operation needs, so a later attempt
// can succeed if the injector relents. This is the static half of the
// retry taxonomy internal/supervise builds on — the dynamic half
// (supervise.Classify) keys on the domain errors these sites wrap, and a
// table-driven test at the module root keeps the two in agreement.
//
// Non-transient sites are exactly the two whose failure is irreversible
// by design: SiteZeroOnFree (the page stays allocated-and-dirty; the
// copy-minimization degradation it causes is permanent for the run) and
// SiteSeal (the fail-closed response destroys the sealed key; only
// re-provisioning from an out-of-RAM anchor, not a retry, can recover).
func (s Site) Transient() bool {
	switch s {
	case SiteZeroOnFree, SiteSeal:
		return false
	default:
		return true
	}
}

// Sites returns every defined site, in declaration order.
func Sites() []Site {
	out := make([]Site, 0, int(numSites)-1)
	for s := SiteAllocPages; s < numSites; s++ {
		out = append(out, s)
	}
	return out
}

// Rule says when one site fails.
type Rule struct {
	// Prob is the per-call failure probability in [0, 1]. The decision
	// for call n is a pure function of (plan seed, site, n).
	Prob float64
	// Nth lists explicit 1-based call ordinals that must fail, on top of
	// whatever Prob decides. An Nth schedule with Prob 0 gives a fully
	// scripted failure ("deny the second Mlock").
	Nth []uint64
}

// Plan is one machine's complete fault configuration.
type Plan struct {
	// Seed drives every probabilistic decision. Two plans with the same
	// Seed and Rules inject identically.
	Seed int64
	// Rules maps each faulted site to its rule; absent sites never fail.
	Rules map[Site]Rule
}

// Injector makes the per-call decisions for one machine. The zero of
// *Injector (nil) is a valid no-fault injector: every method is nil-safe,
// so subsystems hold one unconditionally and pay only a nil check when
// injection is off.
type Injector struct {
	seed  int64
	rules map[Site]rule

	calls    [numSites]uint64
	injected [numSites]int
}

// rule is a Rule with the Nth schedule indexed for O(1) lookup.
type rule struct {
	prob float64
	nth  map[uint64]bool
}

// NewInjector compiles a plan. A nil plan yields a nil (inert) injector.
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{seed: p.Seed, rules: make(map[Site]rule, len(p.Rules))}
	for site, r := range p.Rules {
		c := rule{prob: r.Prob}
		if len(r.Nth) > 0 {
			c.nth = make(map[uint64]bool, len(r.Nth))
			for _, n := range r.Nth {
				c.nth[n] = true
			}
		}
		in.rules[site] = c
	}
	return in
}

// Fail records one call at site and returns an injected error if the plan
// says this call fails, nil otherwise. Callers wrap the returned error in
// their domain error (alloc.ErrOutOfMemory, vm.ErrMlockDenied, ...) so
// both errors.Is targets hold.
func (in *Injector) Fail(site Site) error {
	if in == nil {
		return nil
	}
	in.calls[site-1]++
	r, ok := in.rules[site]
	if !ok {
		return nil
	}
	n := in.calls[site-1]
	if !r.nth[n] && !probFail(in.seed, site, n, r.prob) {
		return nil
	}
	in.injected[site-1]++
	return fmt.Errorf("%w at %s (call %d)", ErrInjected, site, n)
}

// probFail decides call n at site purely from the seed: the derived
// 64-bit stream value, mapped to [0,1) with 53-bit precision, is compared
// against prob. No state, so interleaving with other sites is irrelevant.
func probFail(seed int64, site Site, n uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	u := uint64(stats.DeriveSeed(seed, int64(site), int64(n)))
	return float64(u>>11)/(1<<53) < prob
}

// Calls returns how many times site has been consulted.
func (in *Injector) Calls(site Site) uint64 {
	if in == nil {
		return 0
	}
	return in.calls[site-1]
}

// Injected returns how many calls at site actually failed.
func (in *Injector) Injected(site Site) int {
	if in == nil {
		return 0
	}
	return in.injected[site-1]
}

// TotalInjected returns the machine-wide injected-failure count.
func (in *Injector) TotalInjected() int {
	if in == nil {
		return 0
	}
	total := 0
	for _, n := range in.injected {
		total += n
	}
	return total
}
