package serve_test

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"

	"repro/pdl"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// spanHarness starts a MemDisk-backed server with frontend config cfg
// and a client for span tests.
func spanHarness(t *testing.T, cfg serve.Config) (*serve.Client, *serve.Frontend) {
	t.Helper()
	res, err := pdl.Build(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(res, 2*res.Layout.Size, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	front := serve.New(s, cfg)
	t.Cleanup(func() { front.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(front)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := serve.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, front
}

// TestClientSpans drives the client-side striping path: random
// ReadAt/WriteAt spans (unaligned heads and tails, multi-stripe middles)
// over the wire against a flat mirror of the logical space.
func TestClientSpans(t *testing.T) {
	c, _ := spanHarness(t, serve.Config{QueueDepth: 32})
	unit := c.UnitSize()
	size := c.Size()
	mirror := make([]byte, size)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		off := int64(rng.Intn(int(size)))
		n := rng.Intn(8*unit) + 1
		if off+int64(n) > size {
			n = int(size - off)
		}
		p := make([]byte, n)
		rng.Read(p)
		wn, err := c.WriteAt(p, off)
		if err != nil || wn != n {
			t.Fatalf("WriteAt(%d, %d): n=%d err=%v", off, n, wn, err)
		}
		copy(mirror[off:], p)

		roff := int64(rng.Intn(int(size)))
		rn := rng.Intn(8*unit) + 1
		if roff+int64(rn) > size {
			rn = int(size - roff)
		}
		got := make([]byte, rn)
		gn, err := c.ReadAt(got, roff)
		if err != nil || gn != rn {
			t.Fatalf("ReadAt(%d, %d): n=%d err=%v", roff, rn, gn, err)
		}
		if !bytes.Equal(got, mirror[roff:roff+int64(rn)]) {
			t.Fatalf("ReadAt(%d, %d) diverges from mirror", roff, rn)
		}
	}

	// A whole-array span in one call each way.
	big := make([]byte, size)
	rng.Read(big)
	if n, err := c.WriteAt(big, 0); err != nil || int64(n) != size {
		t.Fatalf("full WriteAt: n=%d err=%v", n, err)
	}
	copy(mirror, big)
	got := make([]byte, size)
	if n, err := c.ReadAt(got, 0); err != nil || int64(n) != size {
		t.Fatalf("full ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("full-span round trip diverges")
	}

	// Span requests coalesce on the server: the batch counters must show
	// multi-op batches, not one batch per unit.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Frontend.Batches == 0 || st.Frontend.BatchedOps <= st.Frontend.Batches {
		t.Errorf("span traffic did not batch: %d ops in %d batches", st.Frontend.BatchedOps, st.Frontend.Batches)
	}

	// EOF edges mirror store.ReadAt: crossing the end returns the prefix
	// and io.EOF; at or past the end returns 0, io.EOF.
	tail := make([]byte, 2*unit)
	n, err := c.ReadAt(tail, size-int64(unit))
	if n != unit || err != io.EOF {
		t.Fatalf("ReadAt past end: n=%d err=%v, want %d, io.EOF", n, err, unit)
	}
	if !bytes.Equal(tail[:unit], mirror[size-int64(unit):]) {
		t.Fatal("tail prefix diverges")
	}
	if n, err := c.ReadAt(tail, size); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt(size): n=%d err=%v, want 0, io.EOF", n, err)
	}
	if _, err := c.WriteAt(tail, size-int64(unit)); err == nil {
		t.Fatal("WriteAt past end accepted")
	}
	if _, err := c.ReadAt(tail, -1); err == nil {
		t.Fatal("negative ReadAt accepted")
	}

	// Degraded spans: the same striping must serve from survivor XOR.
	if err := c.Fail(4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("degraded full-span read diverges")
	}
}
