package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"time"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/fleet"
	"memshield/internal/kernel"
	"memshield/internal/kernel/alloc"
	"memshield/internal/libc"
	"memshield/internal/mem"
	"memshield/internal/scrub"
	"memshield/internal/ssl"
	"memshield/internal/stats"
)

// Probe sample counts: enough that p50 settles, small enough that all
// probes together take well under a second.
const (
	probeOps        = 1000 // private ops per key variant
	probeD2i        = 200
	probeForks      = 200
	probeChunks     = 4000
	probeRands      = 4000
	probePageBatch  = 64 // page alloc+free cycles timed together
	probePageRounds = 200
	// chunkBytes is the payload buffer both servers churn per transfer
	// at the fleet's 4 KiB transfer size.
	chunkBytes = 4096
)

// probeResult holds the timings of the layers no span reaches from
// outside a server call. Times are ns.
type probeResult struct {
	privateOp, sealedOp, d2i, forkExit *opStats
	chunk, payloadRand                 *opStats
	pageCycle                          map[alloc.Policy]float64 // median ns per alloc+free
	unsealsPerOp                       float64
}

// timeEach times n calls of fn one by one.
func timeEach(n int, fn func(i int) error) (*opStats, error) {
	o := &opStats{sorted: make([]int64, 0, n)}
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		o.add(int64(time.Since(start)))
	}
	o.sort()
	return o, nil
}

// runProbes measures the direct layer probes on a fresh machine of the
// workload's per-machine config, running one server of its kind and level.
func runProbes(cfg fleet.Config) (probeResult, error) {
	var pr probeResult
	k, err := kernel.New(kernel.Config{MemPages: cfg.MemPages, SwapPages: cfg.SwapPages, DeallocPolicy: cfg.Level.KernelPolicy()})
	if err != nil {
		return pr, err
	}
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(cfg.Seed, 100)), cfg.KeyBits)
	if err != nil {
		return pr, err
	}
	pem := key.MarshalPEM()
	defer scrub.Bytes(pem)
	if err := k.FS().WriteFile(tenantKeyPath(0), pem); err != nil {
		return pr, err
	}
	if err := k.ScrambleFreeMemory(stats.DeriveSeed(cfg.Seed, 101)); err != nil {
		return pr, err
	}
	srv, err := startServer(k, cfg, 0, stats.DeriveSeed(cfg.Seed, 102))
	if err != nil {
		return pr, err
	}

	// kernel/vm: fork the server's master and exit the child.
	pr.forkExit, err = timeEach(probeForks, func(int) error {
		pid, err := k.Fork(srv.PID(), "probe-child")
		if err != nil {
			return err
		}
		return k.Exit(pid)
	})
	if err != nil {
		return pr, fmt.Errorf("fork probe: %w", err)
	}

	pid, err := k.Spawn(0, "probe")
	if err != nil {
		return pr, err
	}
	h := libc.New(k, pid)

	// ssl: d2i as the level loads the key.
	var loadOpts []ssl.LoadOption
	if cfg.Level.AlignAtLoad() {
		loadOpts = append(loadOpts, ssl.WithAutoAlign())
	}
	var loaded *ssl.RSA
	pr.d2i, err = timeEach(probeD2i, func(int) error {
		loaded, err = ssl.D2iPrivateKey(h, pem, loadOpts...)
		if err != nil {
			return err
		}
		return loaded.Free(true)
	})
	if err != nil {
		return pr, fmt.Errorf("d2i probe: %w", err)
	}

	// ssl and seal: the same private op on an aligned key, plain and
	// sealed at rest, interleaved so drift affects both alike.
	plain, err := ssl.D2iPrivateKey(h, pem, ssl.WithAutoAlign())
	if err != nil {
		return pr, err
	}
	sealed, err := ssl.D2iPrivateKey(h, pem, ssl.WithAutoAlign())
	if err != nil {
		return pr, err
	}
	if err := sealed.SealAtRest(stats.NewReader(stats.DeriveSeed(cfg.Seed, 103)), nil); err != nil {
		return pr, err
	}
	digest := sha256.Sum256([]byte("memshield bench probe"))
	em, err := rsakey.EncodePKCS1v15(digest[:], (key.N.BitLen()+7)/8)
	if err != nil {
		return pr, err
	}
	pr.privateOp, pr.sealedOp = &opStats{}, &opStats{}
	op := func(r *ssl.RSA, o *opStats) ([]byte, error) {
		start := time.Now()
		out, err := r.PrivateOp(em)
		o.add(int64(time.Since(start)))
		return out, err
	}
	var plainOut, sealedOut []byte
	for i := 0; i < probeOps && err == nil; i++ {
		if plainOut, err = op(plain, pr.privateOp); err == nil {
			sealedOut, err = op(sealed, pr.sealedOp)
		}
	}
	if err != nil {
		return pr, fmt.Errorf("private op probe: %w", err)
	}
	pr.privateOp.sort()
	pr.sealedOp.sort()
	if err := checkSignature(key.PublicKey, em, plainOut, sealedOut); err != nil {
		return pr, err
	}
	levelKey := plain
	if cfg.Level.SealsAtRest() {
		levelKey = sealed
	}
	pr.unsealsPerOp = float64(levelKey.SealStats().Unseals) / probeOps

	// libc: one transfer chunk through the heap.
	payload := make([]byte, chunkBytes)
	pr.chunk, err = timeEach(probeChunks, func(int) error {
		p, err := h.Malloc(chunkBytes)
		if err != nil {
			return err
		}
		if err := h.Write(p, payload); err != nil {
			return err
		}
		return h.Free(p)
	})
	if err != nil {
		return pr, fmt.Errorf("chunk probe: %w", err)
	}

	// stats: the seeded payload fill every transfer chunk pays.
	pr.payloadRand, err = timeEach(probeRands, func(i int) error {
		_, err := stats.NewRand(int64(i)).Read(payload)
		return err
	})
	if err != nil {
		return pr, fmt.Errorf("payload probe: %w", err)
	}

	pr.pageCycle = map[alloc.Policy]float64{}
	for _, p := range []alloc.Policy{alloc.PolicyRetain, alloc.PolicyZeroOnFree} {
		ns, err := pageCycle(cfg.MemPages, p)
		if err != nil {
			return pr, fmt.Errorf("page probe %v: %w", p, err)
		}
		pr.pageCycle[p] = ns
	}
	return pr, errors.Join(plain.Free(true), sealed.Free(true), srv.Stop())
}

// checkSignature verifies that the plain and sealed private ops agree and
// that the result is the private op of em.
func checkSignature(pub rsakey.PublicKey, em, plain, sealed []byte) error {
	if !bytes.Equal(plain, sealed) {
		return errors.New("private op probe: sealed and plain keys disagree")
	}
	back := new(big.Int).Exp(new(big.Int).SetBytes(plain), pub.E, pub.N)
	if back.Cmp(new(big.Int).SetBytes(em)) != 0 {
		return errors.New("private op probe: result is not a signature of the input")
	}
	return nil
}

// pageCycle returns the median ns of one page alloc+free under a policy,
// timed in batches: a batch allocates probePageBatch pages and frees them
// all.
func pageCycle(pages int, p alloc.Policy) (float64, error) {
	m, err := mem.New(pages)
	if err != nil {
		return 0, err
	}
	a, err := alloc.New(m, p)
	if err != nil {
		return 0, err
	}
	held := make([]mem.PageNum, probePageBatch)
	o, err := timeEach(probePageRounds, func(int) error {
		for i := range held {
			if held[i], err = a.AllocPage(mem.OwnerKernel); err != nil {
				return err
			}
		}
		for _, pn := range held {
			if err := a.Free(pn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return o.quantile(0.5) / probePageBatch, nil
}
