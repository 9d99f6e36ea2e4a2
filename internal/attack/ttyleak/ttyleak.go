// Package ttyleak implements the paper's second attack (Section 2),
// exploiting the pre-2.6.11 n_tty.c signed-type bug: an unprivileged
// process could dump a large region of physical memory whose location and
// size depended on the terminal running the exploit — about 50% of RAM on
// average in the paper's runs.
//
// Unlike the ext2 leak, the dump covers allocated AND unallocated memory
// indiscriminately, which is why the kernel-level zeroing defence alone
// cannot stop it: whatever fraction of memory is disclosed, the surviving
// key copies in allocated memory fall inside it with that probability. The
// paper's integrated defence reduces the copies to one, taking the success
// rate down to roughly the disclosed fraction (~50% for OpenSSH, ~38% for
// Apache) — and no further, which is the paper's argument that full
// protection needs special hardware.
package ttyleak

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"memshield/internal/kernel"
	"memshield/internal/mem"
	"memshield/internal/scan"
)

// DefaultFraction is the average fraction of physical memory the exploit
// disclosed in the paper's runs.
const DefaultFraction = 0.5

// Config tunes the disclosure model.
type Config struct {
	// Fraction of physical memory disclosed on average (default 0.5).
	Fraction float64
	// Jitter is the relative spread of the disclosed size around
	// Fraction (default 0.1, i.e. ±10%), modelling the paper's "size ...
	// varied, dependent on the terminal running the exploit".
	Jitter float64
}

func (c *Config) applyDefaults() {
	if c.Fraction == 0 {
		c.Fraction = DefaultFraction
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
}

// Result captures one attack run.
type Result struct {
	// Offset and Size describe the disclosed physical window.
	Offset int
	Size   int
	// Summary counts key-part matches in the dump.
	Summary scan.Summary
	// Success is the paper's criterion: any part of the key recovered.
	Success bool
}

// Run performs one dump-and-search attack. The window's size varies by
// ±Jitter around Fraction of RAM, and its placement is uniform with
// wrap-around: the exploit walked kernel virtual mappings whose relation to
// physical frame numbers is effectively arbitrary, so any given physical
// page falls inside the dump with probability equal to the disclosed
// fraction — the statistic behind the paper's ~50% residual success rate.
// Seed rng per trial for reproducible sweeps.
func Run(k *kernel.Kernel, patterns []scan.Pattern, rng *rand.Rand, cfg Config) (Result, error) {
	cfg.applyDefaults()
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		return Result{}, fmt.Errorf("ttyleak: bad fraction %v", cfg.Fraction)
	}
	if rng == nil {
		return Result{}, errors.New("ttyleak: rng required")
	}
	memSize := k.Mem().Size()
	size := int(cfg.Fraction * (1 + cfg.Jitter*(2*rng.Float64()-1)) * float64(memSize))
	if size < 1 {
		size = 1
	}
	if size > memSize {
		size = memSize
	}
	offset := rng.Intn(memSize)
	var dump []byte
	if offset+size <= memSize {
		view, err := k.Mem().View(mem.Addr(offset), size)
		if err != nil {
			return Result{}, fmt.Errorf("ttyleak: %w", err)
		}
		dump = view
	} else {
		// Wrap-around: stitch the tail and head into one attacker-owned
		// buffer so patterns spanning the seam are still found. The views
		// are only read from; dump itself is a fresh allocation on this
		// branch, never an alias of physical memory.
		head := memSize - offset
		dump = make([]byte, 0, size)
		tail, err := k.Mem().View(mem.Addr(offset), head)
		if err != nil {
			return Result{}, fmt.Errorf("ttyleak: %w", err)
		}
		dump = append(dump, tail...)
		front, err := k.Mem().View(0, size-head)
		if err != nil {
			return Result{}, fmt.Errorf("ttyleak: %w", err)
		}
		dump = append(dump, front...)
	}
	res := Result{
		Offset:  offset,
		Size:    size,
		Summary: scan.CountInBuffer(dump, patterns),
		Success: scan.FoundAny(dump, patterns),
	}
	runtime.KeepAlive(k) // dump may alias k's memory, which its finalizer could unmap
	return res, nil
}
