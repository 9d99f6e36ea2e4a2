// Package workload implements the paper's performance benchmarks: the scp
// stress test of Figure 8 (20 concurrent connections, 4000 file transfers,
// ten file sizes averaging 102.3 KiB) and the siege HTTPS benchmark of
// Figures 19–20 (4000 transactions at concurrency 20).
//
// The benchmarks drive the real simulated servers — every handshake is a
// genuine RSA-CRT operation over key bytes in simulated memory, every
// transfer churns real simulated heap pages — and then translate the
// counted work into wall-clock seconds with a cost model calibrated to the
// paper's testbed (3.2 GHz Pentium 4, 100 Mb/s switched LAN, scp-era
// cipher throughput). The question under test is the paper's: does the
// zero-on-free kernel patch (whose cost appears as PagesZeroed × PageZeroSec)
// visibly move any of the four metrics? The model answers it the same way
// the paper's measurements did: page clearing is microseconds against
// milliseconds of cipher and protocol work per transfer, so the bars are
// indistinguishable.
package workload

import (
	"errors"
	"fmt"

	"memshield/internal/crypto/rsakey"
	"memshield/internal/host"
	"memshield/internal/kernel"
	"memshield/internal/protect"
	"memshield/internal/server/httpd"
	"memshield/internal/server/sshd"
	"memshield/internal/stats"
)

// KeyPath is where the benchmark key lives in the simulated filesystem.
const KeyPath = "/etc/ssl/private/bench.key"

// CostModel converts counted simulated operations into seconds.
type CostModel struct {
	// HandshakeSec is one RSA-1024 CRT private operation (~5 ms on the
	// paper's P4).
	HandshakeSec float64
	// PerConnSetupSec covers fork/re-exec and TCP/SSH session setup.
	PerConnSetupSec float64
	// PerTransferOverheadSec is per-file/request protocol overhead.
	PerTransferOverheadSec float64
	// CipherBytesPerSec is bulk encryption throughput (scp-era single
	// stream on a P4: ~3.2 MB/s).
	CipherBytesPerSec float64
	// NetworkBitsPerSec is the shared LAN (100 Mb/s).
	NetworkBitsPerSec float64
	// PageZeroSec is one clear_highpage of a 4 KiB frame (~1.2 µs).
	PageZeroSec float64
	// PageOpSec is one buddy alloc or free (~0.3 µs).
	PageOpSec float64
	// ClientGapSec is the benchmark client's think/reconnect gap per
	// transaction.
	ClientGapSec float64
}

// DefaultCostModel returns constants calibrated to the paper's testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		HandshakeSec:           5e-3,
		PerConnSetupSec:        2e-3,
		PerTransferOverheadSec: 5e-3,
		CipherBytesPerSec:      3.2e6,
		NetworkBitsPerSec:      100e6,
		PageZeroSec:            1.2e-6,
		PageOpSec:              0.3e-6,
		ClientGapSec:           1e-3,
	}
}

// PerfResult carries the metrics the paper reports.
type PerfResult struct {
	// ElapsedSec is the simulated wall-clock duration of the run.
	ElapsedSec float64
	// TransactionRate is transfers (or transactions) per second.
	TransactionRate float64
	// ThroughputMbit is payload megabits per second.
	ThroughputMbit float64
	// ResponseTimeSec is the mean per-transaction latency.
	ResponseTimeSec float64
	// Concurrency is the measured mean concurrency (siege-style).
	Concurrency float64
	// PagesZeroed is how many frames the dealloc policy cleared — the
	// entire marginal cost of the kernel patch.
	PagesZeroed int
	// Transactions and BytesMoved echo the workload volume.
	Transactions int
	BytesMoved   int
}

// DefaultSSHFileSizes returns the paper's ten benchmark files, 1–512 KiB
// averaging 102.3 KiB (1+2+4+8+16+32+64+128+256+512 = 1023 KiB over 10).
func DefaultSSHFileSizes() []int {
	sizes := make([]int, 10)
	for i := range sizes {
		sizes[i] = (1 << i) * 1024
	}
	return sizes
}

// The paper's benchmark shape: 20 concurrent clients (scp in Figure 8,
// siege in Figures 19–20) and siege responses of 30 KiB.
const (
	concurrency   = 20
	responseBytes = 30 * 1024
)

// SSHBenchConfig describes one Figure-8 run. Each transfer moves the next
// of DefaultSSHFileSizes, cycling.
type SSHBenchConfig struct {
	Level protect.Level
	// TotalTransfers across all connections (4000).
	TotalTransfers int
	// MemPages, KeyBits, Seed configure the machine (8192 / 512 / any).
	MemPages int
	KeyBits  int
	Seed     int64
}

func (c *SSHBenchConfig) applyDefaults() {
	if c.TotalTransfers == 0 {
		c.TotalTransfers = 4000
	}
	if c.MemPages == 0 {
		c.MemPages = 8192
	}
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelNone
	}
}

// setupMachine boots a machine with a key on disk for the given level. Its
// sub-streams are minted with DeriveSeed (1=keygen, 2=scramble; 3 is the
// caller's server stream), so adjacent caller seeds never alias.
func setupMachine(memPages, keyBits int, seed int64, level protect.Level) (*kernel.Kernel, error) {
	key, err := rsakey.Generate(stats.NewReader(stats.DeriveSeed(seed, 1)), keyBits)
	if err != nil {
		return nil, err
	}
	return host.Boot(kernel.Config{MemPages: memPages, DeallocPolicy: level.KernelPolicy()},
		stats.DeriveSeed(seed, 2), host.Key{Path: KeyPath, Key: key})
}

// RunSSHBench executes the scp stress benchmark at one protection level.
func RunSSHBench(cfg SSHBenchConfig) (PerfResult, error) {
	cfg.applyDefaults()
	if cfg.TotalTransfers <= 0 {
		return PerfResult{}, errors.New("workload: transfers must be positive")
	}
	k, err := setupMachine(cfg.MemPages, cfg.KeyBits, cfg.Seed, cfg.Level)
	if err != nil {
		return PerfResult{}, fmt.Errorf("workload: %w", err)
	}
	s, err := sshd.Start(k, sshd.Config{KeyPath: KeyPath, Level: cfg.Level, Seed: stats.DeriveSeed(cfg.Seed, 3)})
	if err != nil {
		return PerfResult{}, fmt.Errorf("workload: %w", err)
	}
	zeroedBefore := k.Alloc().Stats().PagesZeroed
	opsBefore := k.Alloc().Stats().Allocs + k.Alloc().Stats().Frees

	conns := make([]int, concurrency)
	for i := range conns {
		id, err := s.Connect()
		if err != nil {
			return PerfResult{}, fmt.Errorf("workload: %w", err)
		}
		conns[i] = id
	}
	sizes := DefaultSSHFileSizes()
	bytesMoved := 0
	for i := 0; i < cfg.TotalTransfers; i++ {
		size := sizes[i%len(sizes)]
		if err := s.Transfer(conns[i%len(conns)], size); err != nil {
			return PerfResult{}, fmt.Errorf("workload: transfer %d: %w", i, err)
		}
		bytesMoved += size
		if i%100 == 99 {
			k.Tick()
		}
	}
	for _, id := range conns {
		if err := s.Disconnect(id); err != nil {
			return PerfResult{}, fmt.Errorf("workload: %w", err)
		}
	}
	k.Tick()
	zeroed := k.Alloc().Stats().PagesZeroed - zeroedBefore
	pageOps := k.Alloc().Stats().Allocs + k.Alloc().Stats().Frees - opsBefore

	return DefaultCostModel().score(transactionLoad{
		transactions: cfg.TotalTransfers,
		handshakes:   concurrency,
		connSetups:   concurrency,
		bytesMoved:   bytesMoved,
		pagesZeroed:  zeroed,
		pageOps:      pageOps,
		concurrency:  concurrency,
	}), nil
}

// ApacheBenchConfig describes one Figure-19/20 siege run.
type ApacheBenchConfig struct {
	Level protect.Level
	// Transactions is the total HTTPS transaction count (4000).
	Transactions int
	// MemPages, KeyBits, Seed configure the machine.
	MemPages int
	KeyBits  int
	Seed     int64
}

func (c *ApacheBenchConfig) applyDefaults() {
	if c.Transactions == 0 {
		c.Transactions = 4000
	}
	if c.MemPages == 0 {
		c.MemPages = 8192
	}
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	if !c.Level.Valid() {
		c.Level = protect.LevelNone
	}
}

// RunApacheBench executes the siege benchmark at one protection level. Each
// transaction is a fresh HTTPS connection (full RSA handshake) serving one
// response, matching siege's default non-keepalive behaviour.
func RunApacheBench(cfg ApacheBenchConfig) (PerfResult, error) {
	cfg.applyDefaults()
	if cfg.Transactions <= 0 {
		return PerfResult{}, errors.New("workload: transactions must be positive")
	}
	k, err := setupMachine(cfg.MemPages, cfg.KeyBits, cfg.Seed, cfg.Level)
	if err != nil {
		return PerfResult{}, fmt.Errorf("workload: %w", err)
	}
	s, err := httpd.Start(k, httpd.Config{
		KeyPath: KeyPath, Level: cfg.Level, Seed: stats.DeriveSeed(cfg.Seed, 3),
		MaxClients: concurrency + 4,
	})
	if err != nil {
		return PerfResult{}, fmt.Errorf("workload: %w", err)
	}
	zeroedBefore := k.Alloc().Stats().PagesZeroed
	opsBefore := k.Alloc().Stats().Allocs + k.Alloc().Stats().Frees

	bytesMoved := 0
	// In-flight connection IDs live in a fixed ring of concurrency slots.
	ring := make([]int, concurrency)
	head, count := 0, 0
	for i := 0; i < cfg.Transactions; i++ {
		id, err := s.Connect()
		if err != nil {
			return PerfResult{}, fmt.Errorf("workload: txn %d: %w", i, err)
		}
		if err := s.Request(id, responseBytes); err != nil {
			return PerfResult{}, fmt.Errorf("workload: txn %d: %w", i, err)
		}
		bytesMoved += responseBytes
		ring[(head+count)%len(ring)] = id
		count++
		// Keep concurrency connections in flight; retire the oldest.
		if count >= concurrency {
			if err := s.Disconnect(ring[head]); err != nil {
				return PerfResult{}, fmt.Errorf("workload: %w", err)
			}
			head = (head + 1) % len(ring)
			count--
		}
		if i%100 == 99 {
			k.Tick()
			if err := s.MaintainSpares(); err != nil {
				return PerfResult{}, fmt.Errorf("workload: %w", err)
			}
		}
	}
	for i := 0; i < count; i++ {
		if err := s.Disconnect(ring[(head+i)%len(ring)]); err != nil {
			return PerfResult{}, fmt.Errorf("workload: %w", err)
		}
	}
	k.Tick()
	zeroed := k.Alloc().Stats().PagesZeroed - zeroedBefore
	pageOps := k.Alloc().Stats().Allocs + k.Alloc().Stats().Frees - opsBefore

	return DefaultCostModel().score(transactionLoad{
		transactions: cfg.Transactions,
		handshakes:   cfg.Transactions, // full handshake per siege txn
		connSetups:   cfg.Transactions,
		bytesMoved:   bytesMoved,
		pagesZeroed:  zeroed,
		pageOps:      pageOps,
		concurrency:  concurrency,
	}), nil
}

// transactionLoad is the counted work of one benchmark run.
type transactionLoad struct {
	transactions int
	handshakes   int
	connSetups   int
	bytesMoved   int
	pagesZeroed  int
	pageOps      int
	concurrency  int
}

// score converts counted work into the paper's four metrics. The server is
// one CPU, so CPU work serializes; the network serializes separately; the
// run finishes when the slower of the two does. Client-side think gaps
// stretch per-transaction latency without adding server load.
func (cm CostModel) score(load transactionLoad) PerfResult {
	cpuSec := float64(load.handshakes)*cm.HandshakeSec +
		float64(load.connSetups)*cm.PerConnSetupSec +
		float64(load.transactions)*cm.PerTransferOverheadSec +
		float64(load.bytesMoved)/cm.CipherBytesPerSec +
		float64(load.pagesZeroed)*cm.PageZeroSec +
		float64(load.pageOps)*cm.PageOpSec
	netSec := float64(load.bytesMoved) * 8 / cm.NetworkBitsPerSec
	serviceSec := cpuSec
	if netSec > serviceSec {
		serviceSec = netSec
	}
	gapSec := float64(load.transactions) * cm.ClientGapSec / float64(load.concurrency)
	elapsed := serviceSec + gapSec
	rate := float64(load.transactions) / elapsed
	respTime := serviceSec * float64(load.concurrency) / float64(load.transactions)
	return PerfResult{
		ElapsedSec:      elapsed,
		TransactionRate: rate,
		ThroughputMbit:  float64(load.bytesMoved) * 8 / elapsed / 1e6,
		ResponseTimeSec: respTime,
		Concurrency:     rate * respTime,
		PagesZeroed:     load.pagesZeroed,
		Transactions:    load.transactions,
		BytesMoved:      load.bytesMoved,
	}
}
