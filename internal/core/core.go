// Package core is the heart of the reproduction: the paper's contribution,
// stated as machine-checkable guarantees. Section 4 proposes countermeasure
// levels; this package binds a running machine to a level and can audit, at
// any moment, whether the level's promises actually hold:
//
//   - every level that zeroes deallocations promises ZERO key copies in
//     unallocated memory;
//   - every copy-minimizing level promises AT MOST ONE copy of each key
//     part in allocated memory, on an mlocked page;
//   - the integrated level additionally promises an empty page cache (no
//     PEM) and a clean swap device;
//   - the sealed level additionally promises ZERO plaintext key copies in
//     allocated memory: outside a private operation's decrypt window the
//     region holds only ciphertext, so no part pattern may match at all.
//
// The Auditor is what tests, examples and the integration suite use to turn
// the paper's prose claims into enforced invariants — and what a deployment
// of these countermeasures would run as a self-check.
package core

import (
	"fmt"
	"strings"

	"memshield/internal/attack/swapleak"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/report"
	"memshield/internal/scan"
)

// Auditor verifies a protection level's guarantees on a live machine.
type Auditor struct {
	k      *kernel.Kernel
	level  protect.Level
	status *protect.Status
}

// New binds an auditor to a machine and its deployed protection level.
func New(k *kernel.Kernel, level protect.Level) *Auditor {
	return &Auditor{k: k, level: level}
}

// NewWithStatus binds an auditor to a machine and a server's protection
// status, enabling the no-false-security check: AuditEffective verifies
// the level the run CLAIMS after degradations, not the one it was merely
// configured for.
func NewWithStatus(k *kernel.Kernel, status *protect.Status) *Auditor {
	return &Auditor{k: k, level: status.Configured(), status: status}
}

// Report is one audit's findings.
type Report struct {
	Level protect.Level
	// Summary is the scanner's view of the key.
	Summary scan.Summary
	// SwapHits counts key-part matches on the raw swap device.
	SwapHits int
	// UnlockedKeyCopies counts allocated key-part copies (excluding the
	// page-cache PEM) living on pages that are NOT mlocked.
	UnlockedKeyCopies int
	// PerPartAllocated counts allocated copies per part.
	PerPartAllocated map[scan.Part]int
	// PendingZeroCopies counts unallocated copies excused from the
	// zeroing guarantee because their page is still queued for
	// secure-dealloc's deferred scrub: the design's accepted window.
	PendingZeroCopies int
	// Violations lists every broken guarantee (empty = level holds).
	Violations []string
}

// OK reports whether the level's guarantees all hold.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Audit inspects the machine against the configured level's guarantees.
func (a *Auditor) Audit(patterns []scan.Pattern) *Report {
	return a.auditAt(a.level, patterns)
}

// AuditEffective is the no-false-security check: it audits the machine
// against the level the run actually REPORTS — status.Effective(), after
// every recorded refusal and degradation — and therefore must always pass
// on a correctly fail-closed machine. A violation here means the run
// claims protection stronger than the scanner can verify: exactly the
// failure mode fault injection exists to catch. Without a bound status it
// falls back to the configured level (identical to Audit).
func (a *Auditor) AuditEffective(patterns []scan.Pattern) *Report {
	level := a.level
	if a.status != nil {
		level = a.status.Effective()
	}
	return a.auditAt(level, patterns)
}

// auditAt inspects the machine against an explicit level's guarantees.
func (a *Auditor) auditAt(level protect.Level, patterns []scan.Pattern) *Report {
	matches := scan.New(a.k, patterns).Scan()
	rep := &Report{
		Level:            level,
		Summary:          scan.Summarize(matches),
		PerPartAllocated: make(map[scan.Part]int),
	}
	for _, m := range matches {
		if !m.Allocated {
			continue
		}
		rep.PerPartAllocated[m.Part]++
		if m.Part == scan.PartPEM {
			continue
		}
		if !a.k.Mem().Frame(m.Addr.Page()).Locked {
			rep.UnlockedKeyCopies++
		}
	}
	rep.SwapHits = swapleak.Run(a.k, patterns).Summary.Total

	if level.ZeroesUnallocated() && rep.Summary.Unallocated != 0 {
		// Secure-dealloc's zeroing is deferred: a copy on a page still
		// queued for scrubbing sits inside the exposure window the design
		// accepts (and PendingZero over-reports, never under-reports, that
		// window — a failed scrub re-queues). Only copies on free pages the
		// allocator has no plan to clear break the guarantee. Under the
		// synchronous policies the queue is empty and nothing is excused.
		for _, m := range matches {
			if !m.Allocated && a.k.Alloc().ZeroPending(m.Addr.Page()) {
				rep.PendingZeroCopies++
			}
		}
		if n := rep.Summary.Unallocated - rep.PendingZeroCopies; n > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%d key copies in unallocated memory; %s guarantees zero",
				n, level))
		}
	}
	if level.MinimizesCopies() {
		for _, part := range []scan.Part{scan.PartD, scan.PartP, scan.PartQ} {
			if n := rep.PerPartAllocated[part]; n > 1 {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"%d allocated copies of %s; copy minimization guarantees at most one",
					n, part))
			}
		}
		if rep.UnlockedKeyCopies > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%d allocated key copies on unlocked pages; aligned keys must be mlocked",
				rep.UnlockedKeyCopies))
		}
		if rep.SwapHits > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%d key matches on the swap device; mlocked keys must never swap",
				rep.SwapHits))
		}
	}
	if level.SealsAtRest() {
		// The audit runs between operations, when the working window is
		// closed: a sealed key is ciphertext, so even the single mlocked
		// copy the weaker levels tolerate must not match.
		for _, part := range []scan.Part{scan.PartD, scan.PartP, scan.PartQ} {
			if n := rep.PerPartAllocated[part]; n > 0 {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"%d allocated plaintext copies of %s; sealed-at-rest guarantees ciphertext outside the decrypt window",
					n, part))
			}
		}
	}
	if level.EvictsPEM() && rep.PerPartAllocated[scan.PartPEM] > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"%d PEM copies in the page cache; O_NOCACHE guarantees eviction",
			rep.PerPartAllocated[scan.PartPEM]))
	}
	return rep
}

// Verify runs an audit and returns an error describing every violated
// guarantee, or nil if the level holds.
func (a *Auditor) Verify(patterns []scan.Pattern) error {
	rep := a.Audit(patterns)
	if rep.OK() {
		return nil
	}
	return fmt.Errorf("core: %s guarantees violated: %s",
		a.level, strings.Join(rep.Violations, "; "))
}

// Render prints the audit as a table plus the violation list.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Protection audit — level %s\n", r.Level)
	rows := [][]string{
		{"total copies", fmt.Sprintf("%d", r.Summary.Total)},
		{"allocated", fmt.Sprintf("%d", r.Summary.Allocated)},
		{"unallocated", fmt.Sprintf("%d", r.Summary.Unallocated)},
		{"on swap device", fmt.Sprintf("%d", r.SwapHits)},
		{"allocated on unlocked pages", fmt.Sprintf("%d", r.UnlockedKeyCopies)},
	}
	b.WriteString(report.RenderTable("", []string{"measure", "value"}, rows))
	if r.OK() {
		b.WriteString("\nall guarantees hold\n")
	} else {
		b.WriteString("\nVIOLATIONS:\n")
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}
