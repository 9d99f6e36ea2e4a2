// Package httpd simulates the Apache 2.0.55 HTTP server with mod_ssl,
// compiled with the prefork MPM, as studied in Section 6 of the paper.
//
// The prefork copy-amplification pattern it reproduces:
//
//   - At startup the parent reads its configuration twice (Apache's
//     historical double config pass), so the key is loaded twice; the first
//     load's BIGNUMs are freed without clearing on the unpatched system —
//     the "private key appears multiple times" the paper observed at t=2.
//   - A pool of worker children is forked; the key is COW-inherited.
//   - The first TLS handshake in each worker builds that worker's private
//     Montgomery cache — fresh copies of P and Q in the worker's own pages,
//     so the machine-wide copy count grows with the number of workers that
//     have served traffic.
//   - The pool breathes (MinSpare/MaxSpare): workers killed after a load
//     spike drop their cache copies into unallocated memory.
//
// With the key aligned (application or library level) the cache flags are
// cleared and workers never write any key byte, so COW keeps the single
// mlocked copy no matter how large the pool grows.
package httpd

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/crypto/seal"
	"memshield/internal/hsm"
	"memshield/internal/kernel"
	"memshield/internal/libc"
	"memshield/internal/protect"
	"memshield/internal/scrub"
	"memshield/internal/ssl"
	"memshield/internal/stats"
)

// Errors reported by the server.
var (
	ErrNotRunning = errors.New("httpd: server not running")
	ErrNoConn     = errors.New("httpd: no such connection")
	ErrBusy       = errors.New("httpd: MaxClients reached")
	ErrHandshake  = errors.New("httpd: TLS handshake verification failed")
)

// Config describes one Apache instance.
type Config struct {
	// KeyPath is the TLS key's PEM file in the simulated filesystem.
	KeyPath string
	// Level is the protection level to deploy.
	Level protect.Level
	// StartServers is the initial worker pool size (Apache default 5).
	StartServers int
	// MinSpareServers / MaxSpareServers bound the idle pool (5 / 10).
	MinSpareServers int
	MaxSpareServers int
	// MaxClients caps the worker pool (Apache default 150; scaled down).
	MaxClients int
	// RequestBufferBytes is the per-request buffer churn size (8 KiB).
	RequestBufferBytes int
	// Seed drives handshake nonces deterministically.
	Seed int64
	// SealEpoch selects the sealed parent key's provisioning generation
	// (LevelSealed only). Epoch 0 — the default — is the initial
	// out-of-band provisioning and derives the prekey stream exactly as
	// before this field existed, keeping every golden timeline
	// byte-identical. A supervisor re-provisioning after a fail-closed
	// destroy (internal/supervise) passes successive epochs, so each
	// generation seals under a fresh prekey and a disjoint epoch range.
	SealEpoch int64
	// HSM, when set, backs the TLS key with a hardware security module
	// slot: no key material ever enters machine memory (the paper's
	// "special hardware" endpoint). KeyPath is unused in this mode.
	HSM *hsm.Slot
	// Status, when set, receives the run's fail-closed protection record:
	// Start failures refuse it, steady-state teardown failures degrade it.
	// When nil the server tracks one internally; read it with
	// Server.Status(). Passing it in lets a caller observe the refusal
	// reason even when Start returns a nil *Server.
	Status *protect.Status
}

func (c *Config) applyDefaults() {
	if c.StartServers == 0 {
		c.StartServers = 5
	}
	if c.MinSpareServers == 0 {
		c.MinSpareServers = 5
	}
	if c.MaxSpareServers == 0 {
		c.MaxSpareServers = 10
	}
	if c.MaxClients == 0 {
		c.MaxClients = 64
	}
	if c.RequestBufferBytes == 0 {
		c.RequestBufferBytes = 8 * 1024
	}
	if c.StartServers > c.MaxClients {
		c.StartServers = c.MaxClients
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelNone
	}
}

// Stats counts server activity.
type Stats struct {
	Connections    int
	Handshakes     int
	Requests       int
	BytesMoved     int
	WorkersForked  int
	WorkersReaped  int
	Disconnections int
}

// keyBackend is what a worker needs from the TLS key: the private
// operation and the public half.
type keyBackend struct {
	op  privateOp
	pub rsakey.PublicKey
}

// privateOp is the private half of a key: *ssl.RSA and *hsm.Slot both
// have it. Holding the key as an interface, not a method value, costs
// no allocation per worker.
type privateOp interface {
	PrivateOp(input []byte) ([]byte, error)
}

// softwareBackend adapts an in-memory RSA object.
func softwareBackend(r *ssl.RSA) keyBackend {
	return keyBackend{op: r, pub: r.PublicKey()}
}

type worker struct {
	pid      int
	heap     *libc.Heap
	key      keyBackend
	busyConn int // 0 = idle
	served   int
}

// Server is one running simulated Apache instance.
type Server struct {
	k   *kernel.Kernel
	cfg Config

	parentPID  int
	parentHeap *libc.Heap
	parentRSA  *ssl.RSA // nil in HSM mode
	hsmKey     keyBackend

	workers  []*worker
	conns    map[int]*worker
	nextConn int
	nonce    int64
	scratch  stats.Scratch // filler bytes, copied into simulated memory

	stats   Stats
	status  *protect.Status
	running bool
}

// Start boots the server: double config pass, key load, initial worker pool.
// Start is fail-closed: if any part of the deployment cannot be established
// — either config-pass key load, the first generation's controlled discard,
// a worker fork — the key material built so far is scrubbed, every spawned
// process is torn down, the protection status records the refusal, and an
// error is returned. A server that cannot deliver its configured level
// never runs at a silently weaker one.
func Start(k *kernel.Kernel, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	status := cfg.Status
	if status == nil {
		status = protect.NewStatus(cfg.Level)
	}
	parentPID, err := k.Spawn(0, "apache2")
	if err != nil {
		err = fmt.Errorf("httpd: %w", err)
		status.Refuse(err.Error())
		return nil, err
	}
	s := &Server{
		k:          k,
		cfg:        cfg,
		parentPID:  parentPID,
		parentHeap: libc.New(k, parentPID),
		conns:      make(map[int]*worker),
		nonce:      cfg.Seed,
		status:     status,
		running:    true,
	}

	if cfg.HSM != nil {
		pub, err := cfg.HSM.PublicKey()
		if err != nil {
			return nil, s.refuse(fmt.Errorf("httpd: hsm: %w", err))
		}
		s.hsmKey = keyBackend{op: cfg.HSM, pub: pub}
	} else {
		// Apache's double config pass: the key is loaded once per pass, and
		// the first generation is only discarded after the second is built
		// (old config lives until the new one is ready), so its chunks are
		// not recycled by the second load. On the unpatched system the
		// discard is a plain free — the stale d/p/q bytes behind the paper's
		// observation that the key "appears multiple times" right at
		// startup. With the aligned library the teardown scrubs
		// (BN_FLG_STATIC_DATA's controlled release).
		first, err := loadTLSKey(k, s.parentHeap, cfg)
		if err != nil {
			return nil, s.refuse(err)
		}
		parentRSA, err := loadTLSKey(k, s.parentHeap, cfg)
		if err != nil {
			// The first generation is live and must not be abandoned
			// un-scrubbed on the refusal path.
			return nil, s.refuse(errors.Join(err, first.Free(true)))
		}
		if err := first.Free(cfg.Level.MinimizesCopies()); err != nil {
			return nil, s.refuse(errors.Join(
				fmt.Errorf("httpd: config pass: %w", err), parentRSA.Free(true)))
		}
		if cfg.Level.SealsAtRest() {
			// Seal the operational key once the config pass settles (the
			// throwaway first generation is already scrubbed). The prekey
			// stream is derived from the server seed (sub-stream 4; nonces
			// use the raw seed); a re-provisioned generation (SealEpoch > 0)
			// folds the epoch into the derivation and starts the region's
			// epoch counter in its own disjoint range. A seal that cannot be
			// established leaves plaintext behind — scrub it and refuse.
			prekeySeed := stats.DeriveSeed(cfg.Seed, 4)
			var sealOpts []seal.Option
			if cfg.SealEpoch != 0 {
				prekeySeed = stats.DeriveSeed(cfg.Seed, 4, cfg.SealEpoch)
				sealOpts = append(sealOpts, seal.WithStartEpoch(uint64(cfg.SealEpoch)<<32))
			}
			if err := parentRSA.SealAtRest(stats.NewReader(prekeySeed), k.Injector(), sealOpts...); err != nil {
				return nil, s.refuse(errors.Join(
					fmt.Errorf("httpd: TLS key: %w", err), parentRSA.Free(true)))
			}
		}
		s.parentRSA = parentRSA
	}
	for i := 0; i < cfg.StartServers; i++ {
		if _, err := s.forkWorker(); err != nil {
			return nil, s.refuse(err)
		}
	}
	return s, nil
}

// refuse implements scrub-and-refuse for Start failures: tear down every
// worker forked so far, scrub the parent's key if one was loaded, exit the
// parent, and record the refusal. Teardown errors join the cause. Workers
// exit before the parent key is scrubbed so the zeroing write does not
// COW-split pages still shared with children.
func (s *Server) refuse(cause error) error {
	s.status.Refuse(cause.Error())
	s.running = false
	errs := []error{cause}
	for len(s.workers) > 0 {
		w := s.workers[len(s.workers)-1]
		s.workers = s.workers[:len(s.workers)-1]
		if err := s.k.Exit(w.pid); err != nil {
			errs = append(errs, err)
		}
	}
	if s.parentRSA != nil {
		if err := s.parentRSA.Free(true); err != nil {
			errs = append(errs, err)
		}
		s.parentRSA = nil
	}
	errs = append(errs, s.k.Exit(s.parentPID))
	return errors.Join(errs...)
}

// loadTLSKey performs ssl_server_import_key for one process.
func loadTLSKey(k *kernel.Kernel, heap *libc.Heap, cfg Config) (*ssl.RSA, error) {
	pem, err := k.ReadFile(cfg.KeyPath, cfg.Level.OpenFlags())
	if err != nil {
		return nil, fmt.Errorf("httpd: TLS key: %w", err)
	}
	// ReadFile hands back a fresh native copy of the whole key file; d2i
	// puts what the process keeps into simulated memory.
	defer scrub.Bytes(pem)
	var opts []ssl.LoadOption
	if cfg.Level.AlignAtLoad() {
		opts = append(opts, ssl.WithAutoAlign())
	}
	r, err := ssl.D2iPrivateKey(heap, pem, opts...)
	if err != nil {
		return nil, fmt.Errorf("httpd: TLS key: %w", err)
	}
	if cfg.Level.AppAlign() {
		if err := r.MemoryAlign(); err != nil {
			return nil, fmt.Errorf("httpd: TLS key: %w", err)
		}
	}
	return r, nil
}

// forkWorker adds one prefork child to the pool.
func (s *Server) forkWorker() (*worker, error) {
	pid, err := s.k.Fork(s.parentPID, "apache2-worker")
	if err != nil {
		return nil, fmt.Errorf("httpd: fork worker: %w", err)
	}
	heap := s.parentHeap.Clone(pid)
	w := &worker{pid: pid, heap: heap}
	switch {
	case s.cfg.HSM != nil:
		w.key = s.hsmKey
	case s.cfg.Level.SealsAtRest():
		// Sealed key: the worker COW-shares only ciphertext and delegates
		// every private operation to the parent (the HSM pattern) — the
		// decrypt window only ever opens in the parent's address space,
		// whose writes COW-split privately away from the pool.
		w.key = softwareBackend(s.parentRSA)
	default:
		w.key = softwareBackend(s.parentRSA.CloneFor(heap))
	}
	s.workers = append(s.workers, w)
	s.stats.WorkersForked++
	return w, nil
}

// reapWorker kills one idle worker, releasing its pages. If the exit cannot
// complete (pages stranded mid-teardown), the copy-minimization guarantee
// is conservatively degraded: a reaped worker's stranded allocated pages
// may hold the Montgomery-cache copies the level promised would be freed.
func (s *Server) reapWorker(w *worker) error {
	for i, x := range s.workers {
		if x == w {
			s.workers = append(s.workers[:i], s.workers[i+1:]...)
			s.stats.WorkersReaped++
			if err := s.k.Exit(w.pid); err != nil {
				s.status.Degrade(protect.GuaranteeCopyMinimized,
					fmt.Sprintf("worker %d teardown incomplete: %v", w.pid, err))
				return err
			}
			return nil
		}
	}
	return fmt.Errorf("httpd: reap of unknown worker %d", w.pid)
}

// ParentPID returns the parent process's PID.
func (s *Server) ParentPID() int { return s.parentPID }

// Status returns the run's fail-closed protection record.
func (s *Server) Status() *protect.Status { return s.status }

// Stats returns a snapshot of the activity counters.
func (s *Server) Stats() Stats { return s.stats }

// Workers returns the current pool size.
func (s *Server) Workers() int { return len(s.workers) }

// IdleWorkers returns how many workers are not serving a connection.
func (s *Server) IdleWorkers() int {
	n := 0
	for _, w := range s.workers {
		if w.busyConn == 0 {
			n++
		}
	}
	return n
}

// ActiveConnections returns the number of open connections.
func (s *Server) ActiveConnections() int { return len(s.conns) }

// Running reports whether the server is up.
func (s *Server) Running() bool { return s.running }

// Connect opens one HTTPS connection: an idle worker (forking a new one
// under MaxClients if needed) performs the TLS handshake and is pinned to
// the connection. Returns the connection ID.
func (s *Server) Connect() (int, error) {
	if !s.running {
		return 0, ErrNotRunning
	}
	var w *worker
	for _, x := range s.workers {
		if x.busyConn == 0 {
			w = x
			break
		}
	}
	fresh := false
	if w == nil {
		if len(s.workers) >= s.cfg.MaxClients {
			return 0, ErrBusy
		}
		var err error
		w, err = s.forkWorker()
		if err != nil {
			return 0, err
		}
		fresh = true
	}
	if err := s.handshake(w); err != nil {
		s.noteSealCompromise()
		if fresh {
			// Roll the just-forked worker back out of the pool: a failed
			// first handshake may have left a partially built Montgomery
			// cache in its pages.
			err = errors.Join(err, s.reapWorker(w))
		}
		return 0, err
	}
	s.nextConn++
	w.busyConn = s.nextConn
	w.served++
	s.conns[s.nextConn] = w
	s.stats.Connections++
	return s.nextConn, nil
}

// noteSealCompromise records the sealed-at-rest downgrade after a failed
// reseal destroyed the parent key: the region was scrubbed (refusal, not
// plaintext), so every weaker guarantee still holds, but the sealed claim
// is gone and further handshakes will be refused.
func (s *Server) noteSealCompromise() {
	if s.parentRSA == nil {
		return
	}
	if compromised, cause := s.parentRSA.SealCompromised(); compromised {
		s.status.Degrade(protect.GuaranteeSealedAtRest,
			fmt.Sprintf("reseal failed, key destroyed fail-closed: %v", cause))
	}
}

// handshake models the TLS RSA key exchange in the worker: decrypt the
// client's premaster blob with the private key and verify the result.
func (s *Server) handshake(w *worker) error {
	s.nonce++
	pub := w.key.pub
	premaster := s.scratch.Fill(pub.N.BitLen()/8-1, s.nonce)
	premaster[0] &= 0x7F
	blob, err := pub.PublicOp(premaster)
	if err != nil {
		return fmt.Errorf("httpd: handshake: %w", err)
	}
	plain, err := w.key.op.PrivateOp(blob)
	if err != nil {
		return fmt.Errorf("httpd: handshake: %w", err)
	}
	if !bytes.Equal(bytes.TrimLeft(plain, "\x00"), bytes.TrimLeft(premaster, "\x00")) {
		return ErrHandshake
	}
	s.stats.Handshakes++
	return nil
}

// Request serves one HTTPS request of n response bytes on the connection,
// churning the worker's heap like Apache's brigade buffers: allocate, fill,
// free without clearing.
func (s *Server) Request(connID, n int) error {
	w, ok := s.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoConn, connID)
	}
	remaining := n
	for remaining > 0 {
		sz := s.cfg.RequestBufferBytes
		if sz > remaining {
			sz = remaining
		}
		buf, err := w.heap.Malloc(sz)
		if err != nil {
			return fmt.Errorf("httpd: request: %w", err)
		}
		s.nonce++
		if err := w.heap.Write(buf, s.scratch.Fill(sz, s.nonce)); err != nil {
			return err
		}
		if err := w.heap.Free(buf); err != nil {
			return err
		}
		remaining -= sz
	}
	s.stats.Requests++
	s.stats.BytesMoved += n
	return nil
}

// Disconnect closes a connection, returning its worker to the idle pool.
func (s *Server) Disconnect(connID int) error {
	w, ok := s.conns[connID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoConn, connID)
	}
	w.busyConn = 0
	delete(s.conns, connID)
	s.stats.Disconnections++
	return nil
}

// MaintainSpares applies the prefork pool policy: reap idle workers above
// MaxSpareServers (most recently forked first), fork new ones below
// MinSpareServers. The reaped workers' key-cache pages drop into
// unallocated memory.
func (s *Server) MaintainSpares() error {
	if !s.running {
		return ErrNotRunning
	}
	idle := s.IdleWorkers()
	for idle > s.cfg.MaxSpareServers {
		// Find the last (newest) idle worker.
		var victim *worker
		for i := len(s.workers) - 1; i >= 0; i-- {
			if s.workers[i].busyConn == 0 {
				victim = s.workers[i]
				break
			}
		}
		if victim == nil {
			break
		}
		if err := s.reapWorker(victim); err != nil {
			return err
		}
		idle--
	}
	for idle < s.cfg.MinSpareServers && len(s.workers) < s.cfg.MaxClients {
		if _, err := s.forkWorker(); err != nil {
			return err
		}
		idle++
	}
	return nil
}

// Stop shuts the server down: every connection closes, every worker and the
// parent exit, and all their key copies land in unallocated memory.
func (s *Server) Stop() error {
	if !s.running {
		return ErrNotRunning
	}
	ids := make([]int, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var errs []error
	for _, id := range ids {
		if err := s.Disconnect(id); err != nil {
			errs = append(errs, err)
		}
	}
	for len(s.workers) > 0 {
		// Best effort: a stuck worker must not keep the rest of the pool
		// (and the parent's key) alive. reapWorker already degraded the
		// status.
		if err := s.reapWorker(s.workers[len(s.workers)-1]); err != nil {
			errs = append(errs, err)
		}
	}
	s.running = false
	if err := s.k.Exit(s.parentPID); err != nil {
		s.status.Degrade(protect.GuaranteeCopyMinimized,
			fmt.Sprintf("parent teardown incomplete: %v", err))
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
