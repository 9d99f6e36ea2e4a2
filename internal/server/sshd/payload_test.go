package sshd

import (
	"bytes"
	"runtime"
	"testing"

	"memshield/internal/kernel/vm"
	"memshield/internal/protect"
	"memshield/internal/stats"
)

// fillOf returns the first n bytes of seed's stats.Fill stream.
func fillOf(n int, seed int64) []byte {
	b := make([]byte, n)
	stats.Fill(b, seed)
	return b
}

// TestPayloadBytesAreNonceStreams reads the filler bytes back out of
// simulated memory: the session buffer holds the Fill stream of the
// handshake's nonce, a transfer chunk holds the stream of its own nonce, and
// a later connection — which refills the server's one scratch buffer — leaves
// the earlier connection's bytes as they were.
func TestPayloadBytesAreNonceStreams(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	id, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	c := s.conns[id]
	n := s.cfg.SessionBufferBytes
	sessSeed := s.nonce
	readBack := func(c *conn, p vm.VAddr, n int) []byte {
		t.Helper()
		got, err := c.heap.Read(p, n)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := readBack(c, c.sess, n); !bytes.Equal(got, fillOf(n, sessSeed)) {
		t.Fatal("session buffer is not the Fill stream of the handshake nonce")
	}

	// First fit: a 4 KiB probe chunk lands where the transfer's chunk will.
	// Transfer frees its chunk without clearing, so the bytes stay readable.
	probe, err := c.heap.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.heap.Free(probe); err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer(id, 4096); err != nil {
		t.Fatal(err)
	}
	chunkSeed := s.nonce
	if got := readBack(c, probe, 4096); !bytes.Equal(got, fillOf(4096, chunkSeed)) {
		t.Fatal("transfer chunk is not the Fill stream of its nonce")
	}

	id2, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	c2 := s.conns[id2]
	if got := readBack(c2, c2.sess, n); !bytes.Equal(got, fillOf(n, s.nonce)) {
		t.Fatal("second session buffer is not the Fill stream of its nonce")
	}
	if got := readBack(c, c.sess, n); !bytes.Equal(got, fillOf(n, sessSeed)) {
		t.Fatal("second Connect changed the first connection's session bytes")
	}
	if got := readBack(c, probe, 4096); !bytes.Equal(got, fillOf(4096, chunkSeed)) {
		t.Fatal("second Connect changed the first connection's transfer chunk")
	}
}

// TestTransferGoHeapPerChunk: moving a 4 KiB chunk costs less Go heap than
// the chunk itself — the filler is written through the server's reused
// scratch buffer, not a fresh slice and RNG source per chunk.
func TestTransferGoHeapPerChunk(t *testing.T) {
	r := newRig(t, protect.LevelIntegrated)
	s := r.start(t, protect.LevelIntegrated)
	id, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: the first chunk may break COW on a page shared with the
	// master.
	if err := s.Transfer(id, 4096); err != nil {
		t.Fatal(err)
	}
	const rounds = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := s.Transfer(id, 4096); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / rounds; perOp >= 4096 {
		t.Fatalf("Transfer(id, 4096) allocates %d B of Go heap, want < 4096", perOp)
	}
}
