package supervise

import (
	"errors"
	"fmt"
	"testing"

	"memshield/internal/crypto/seal"
	"memshield/internal/fault"
	"memshield/internal/kernel/alloc"
	"memshield/internal/kernel/fs"
	"memshield/internal/kernel/pagecache"
	"memshield/internal/kernel/vm"
	"memshield/internal/libc"
)

// TestClassifyByDomainError pins the error→class mapping on synthetic
// wrap chains (the real chains produced by driving each fault site live
// in TestInjectedWrapChains at the module root, which shares this
// package's expectations via Classify).
func TestClassifyByDomainError(t *testing.T) {
	wrap := func(domain error) error {
		return fmt.Errorf("op: %w", fmt.Errorf("%w: %w", domain, fault.ErrInjected))
	}
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, 0},
		{"unseal", wrap(seal.ErrUnseal), ClassTransient},
		{"nomem", wrap(libc.ErrNoMem), ClassTransient},
		{"oom", wrap(alloc.ErrOutOfMemory), ClassTransient},
		{"swap-full", wrap(vm.ErrNoSwapSpace), ClassTransient},
		{"swap-io", wrap(vm.ErrSwapIO), ClassTransient},
		{"mlock", wrap(vm.ErrMlockDenied), ClassTransient},
		{"evict", wrap(pagecache.ErrEvictIO), ClassTransient},
		{"fsread", wrap(fs.ErrIO), ClassTransient},
		{"reseal", wrap(seal.ErrReseal), ClassReprovision},
		{"destroyed", fmt.Errorf("op: %w", seal.ErrDestroyed), ClassReprovision},
		{"zero-on-free", wrap(alloc.ErrZeroOnFree), ClassPermanent},
		{"organic", errors.New("sshd: no such connection"), ClassPermanent},
		// A reseal error also wraps ErrInjected like the transient sites
		// do; order in Classify must pick re-provision first.
		{"reseal-wins-over-injected", wrap(seal.ErrReseal), ClassReprovision},
		// A joined teardown error carrying a permanent zero-on-free next
		// to a transient cause must not be retried.
		{"join-permanent-dominates",
			errors.Join(wrap(libc.ErrNoMem), wrap(alloc.ErrZeroOnFree)), ClassPermanent},
		// A destroyed-region error joined onto an op error must still
		// trigger re-provisioning.
		{"join-reprovision",
			errors.Join(errors.New("handshake failed"), wrap(seal.ErrReseal)), ClassReprovision},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v (err: %v)", tc.name, got, tc.want, tc.err)
		}
	}
}

// TestClassifyAgreesWithSiteTaxonomy keeps the static taxonomy
// (fault.Site.Transient) and the dynamic one (Classify over the domain
// sentinel each site wraps) in lockstep: a drift between them is exactly
// the "retry a permanent error" bug the taxonomy exists to prevent.
func TestClassifyAgreesWithSiteTaxonomy(t *testing.T) {
	domainOf := map[fault.Site]error{
		fault.SiteAllocPages: alloc.ErrOutOfMemory,
		fault.SiteZeroOnFree: alloc.ErrZeroOnFree,
		fault.SiteMlock:      vm.ErrMlockDenied,
		fault.SiteSwapStore:  vm.ErrSwapIO,
		fault.SiteEvict:      pagecache.ErrEvictIO,
		fault.SiteFSRead:     fs.ErrIO,
		fault.SiteMalloc:     libc.ErrNoMem,
		fault.SiteUnseal:     seal.ErrUnseal,
		fault.SiteSeal:       seal.ErrReseal,
	}
	for _, site := range fault.Sites() {
		domain, ok := domainOf[site]
		if !ok {
			t.Fatalf("site %s has no domain error in the taxonomy test: extend domainOf", site)
		}
		err := fmt.Errorf("%w: %w", domain, fault.ErrInjected)
		class := Classify(err)
		if site.Transient() && class != ClassTransient {
			t.Errorf("%s: site is transient but Classify(%v) = %v", site, domain, class)
		}
		if !site.Transient() && class == ClassTransient {
			t.Errorf("%s: site is permanent but Classify(%v) = transient", site, domain)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := DefaultPolicy(77)
	for op := OpStart; op <= OpReprovision; op++ {
		prevCap := 0
		for attempt := 1; attempt <= 10; attempt++ {
			w := p.BackoffTicks(op, attempt)
			if w2 := p.BackoffTicks(op, attempt); w2 != w {
				t.Fatalf("%s attempt %d: backoff not deterministic (%d vs %d)", op, attempt, w, w2)
			}
			if w < 1 || w >= 2*maxBackoffTicks+1 {
				t.Fatalf("%s attempt %d: backoff %d out of [1, 2*max]", op, attempt, w)
			}
			if w > prevCap {
				prevCap = w
			}
		}
		// The exponential must actually grow before the cap.
		if a1, a4 := p.BackoffTicks(op, 1), p.BackoffTicks(op, 4); a1 >= 2*baseBackoffTicks && a4 < a1 {
			t.Logf("%s: attempt 1 jittered high (%d) vs attempt 4 (%d) — allowed, jitter is seeded", op, a1, a4)
		}
	}
	// Different ops draw from split streams: identical schedules across
	// every op would mean the derivation ignores the op label.
	same := true
	for attempt := 1; attempt <= 6 && same; attempt++ {
		if p.BackoffTicks(OpConnect, attempt) != p.BackoffTicks(OpChurn, attempt) {
			same = false
		}
	}
	if same {
		t.Error("OpConnect and OpChurn share a backoff stream: op label not folded into the derivation")
	}
}
