package httpd

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

// TestRequestBytesAreNonceStreams reads a response chunk back out of the
// worker's simulated memory: it holds the Fill stream of the chunk's nonce,
// and a second connection's handshake and request — which refill the
// server's one scratch buffer — leave the first worker's bytes as they were.
func TestRequestBytesAreNonceStreams(t *testing.T) {
	r := newRig(t, protect.LevelNone)
	s := r.start(t, protect.LevelNone)
	// lastChunk serves one 4 KiB request and returns the worker, the
	// chunk's address and its nonce. First fit: a probe chunk lands where
	// the request's chunk will, and Request frees it without clearing.
	lastChunk := func() (*worker, vm.VAddr, int64) {
		t.Helper()
		id, err := s.Connect()
		if err != nil {
			t.Fatal(err)
		}
		w := s.conns[id]
		probe, err := w.heap.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.heap.Free(probe); err != nil {
			t.Fatal(err)
		}
		if err := s.Request(id, 4096); err != nil {
			t.Fatal(err)
		}
		return w, probe, s.nonce
	}
	readBack := func(w *worker, p vm.VAddr) []byte {
		t.Helper()
		got, err := w.heap.Read(p, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	w1, p1, seed1 := lastChunk()
	if got := readBack(w1, p1); !bytes.Equal(got, fillOf(4096, seed1)) {
		t.Fatal("request chunk is not the Fill stream of its nonce")
	}
	w2, p2, seed2 := lastChunk()
	if w2 == w1 {
		t.Fatal("second connection reused the busy worker")
	}
	if got := readBack(w2, p2); !bytes.Equal(got, fillOf(4096, seed2)) {
		t.Fatal("second request chunk is not the Fill stream of its nonce")
	}
	if got := readBack(w1, p1); !bytes.Equal(got, fillOf(4096, seed1)) {
		t.Fatal("second connection changed the first worker's chunk")
	}
}

// TestRequestGoHeapPerChunk: serving a 4 KiB response costs less Go heap
// than the response itself — the filler is written through the server's
// reused scratch buffer, not a fresh slice and RNG source per chunk.
func TestRequestGoHeapPerChunk(t *testing.T) {
	r := newRig(t, protect.LevelIntegrated)
	s := r.start(t, protect.LevelIntegrated)
	id, err := s.Connect()
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: the first chunk may break COW on a page shared with the
	// parent.
	if err := s.Request(id, 4096); err != nil {
		t.Fatal(err)
	}
	const rounds = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := s.Request(id, 4096); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / rounds; perOp >= 4096 {
		t.Fatalf("Request(id, 4096) allocates %d B of Go heap, want < 4096", perOp)
	}
}
