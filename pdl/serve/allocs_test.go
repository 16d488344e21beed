//go:build !race

// The allocs regression gate (CI) for the serving front end: the
// steady-state synchronous request path (Do/Read/Write and the span
// group submission against a warm frontend) is allocation-bounded at
// zero per request — requests, batch slices, and executor scratch all
// recycle through pools. A regression fails `go test`. Excluded under
// -race: sync.Pool randomly drops items under the race detector.

package serve_test

import (
	"context"
	"testing"

	"repro/pdl/serve"
)

func TestServeHotPathAllocs(t *testing.T) {
	const unitSize = 1024
	f := mustFrontend(t, 17, 4, 4, unitSize, serve.Config{FlushDelay: -1})
	ctx := context.Background()
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	capacity := f.Store().Capacity()
	i := 0
	for w := 0; w < 64; w++ {
		if err := f.Write(ctx, w%capacity, src); err != nil {
			t.Fatal(err)
		}
		if err := f.Read(ctx, w%capacity, dst); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := f.Write(ctx, i%capacity, src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("serve Write allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := f.Read(ctx, i%capacity, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("serve Read allocates %v/op, want 0", n)
	}

	// The span-group path the Server takes for stream chunks: one pooled
	// request carries the chunk, and its units expand into the worker's
	// reused vec scratch.
	const groupUnits = 8
	chunk := make([]byte, groupUnits*unitSize)
	for w := 0; w < 64; w++ {
		if err := f.DoGroup(ctx, serve.Op{Kind: serve.Write, Logical: w % (capacity - groupUnits), Buf: chunk}); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []serve.Kind{serve.Write, serve.Read} {
		if n := testing.AllocsPerRun(200, func() {
			if err := f.DoGroup(ctx, serve.Op{Kind: kind, Logical: i % (capacity - groupUnits), Buf: chunk}); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("serve group (kind %d) allocates %v/op, want 0", kind, n)
		}
	}
}

// TestTCPHotPathAllocs gates the full network path: a synchronous unit
// write and read over a real localhost TCP connection — client encode,
// writev, server decode into pooled frame buffers, store pass, pooled
// response, client demux into the caller's buffer — must stay at ≤1
// allocation per operation end to end (AllocsPerRun counts every
// goroutine: both client loops, both server loops, and the frontend).
func TestTCPHotPathAllocs(t *testing.T) {
	const unitSize = 1024
	f := mustFrontend(t, 17, 4, 4, unitSize, serve.Config{FlushDelay: -1})
	addr := startServer(t, f)
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	src := make([]byte, unitSize)
	dst := make([]byte, unitSize)
	capacity := c.Capacity()
	// Warm every pool on every connection's loops.
	for w := 0; w < 256; w++ {
		if err := c.Write(w%capacity, src); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(w%capacity, dst); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(400, func() {
		if err := c.Write(i%capacity, src); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 1 {
		t.Errorf("TCP Write allocates %v/op, want <=1", n)
	}
	if n := testing.AllocsPerRun(400, func() {
		if err := c.Read(i%capacity, dst); err != nil {
			t.Fatal(err)
		}
		i++
	}); n > 1 {
		t.Errorf("TCP Read allocates %v/op, want <=1", n)
	}
}
