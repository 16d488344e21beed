package cluster_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/pdl/cluster"
	"repro/pdl/serve"
)

// TestClusterProperty is the client's core correctness test: random
// reads and writes at arbitrary (unaligned) offsets and lengths against
// a live multi-shard cluster must behave exactly like the same
// operations against one flat byte slice. Run under both policies.
func TestClusterProperty(t *testing.T) {
	for _, policy := range []cluster.Policy{cluster.ByCapacity, cluster.RoundRobin} {
		t.Run(string(policy), func(t *testing.T) {
			const unitBytes = 64 // 2 array units per shard-unit
			tc := startCluster(t, unitBytes, []int64{8, 12, 16}, policy, serve.Config{QueueDepth: 16, FlushDelay: -1})
			c := tc.open(t, cluster.Options{})

			if c.Shards() != 3 {
				t.Fatalf("Shards() = %d, want 3", c.Shards())
			}
			size := c.Size()
			if want := c.Map().Units() * unitBytes; size != want {
				t.Fatalf("Size() = %d, want %d", size, want)
			}

			mirror := make([]byte, size)
			rng := rand.New(rand.NewSource(int64(len(policy)) * 41))
			buf := make([]byte, 5*unitBytes)
			for op := 0; op < 400; op++ {
				off := rng.Int63n(size)
				n := 1 + rng.Int63n(int64(len(buf)))
				if off+n > size {
					n = size - off
				}
				p := buf[:n]
				if rng.Intn(2) == 0 {
					rng.Read(p)
					if wn, err := c.WriteAt(p, off); err != nil || wn != len(p) {
						t.Fatalf("op %d: WriteAt(%d B @ %d) = %d, %v", op, n, off, wn, err)
					}
					copy(mirror[off:], p)
				} else {
					if rn, err := c.ReadAt(p, off); err != nil || rn != len(p) {
						t.Fatalf("op %d: ReadAt(%d B @ %d) = %d, %v", op, n, off, rn, err)
					}
					if !bytes.Equal(p, mirror[off:off+n]) {
						t.Fatalf("op %d: read [%d,%d) diverges from mirror", op, off, off+n)
					}
				}
			}

			// Full-namespace sweep, bit-exact against the mirror.
			all := make([]byte, size)
			if n, err := c.ReadAt(all, 0); err != nil || int64(n) != size {
				t.Fatalf("sweep: %d, %v", n, err)
			}
			if !bytes.Equal(all, mirror) {
				t.Fatal("namespace diverges from mirror after random traffic")
			}

			// Every shard's array still satisfies parity.
			for s, ts := range tc.shards {
				if err := ts.store.VerifyParity(); err != nil {
					t.Fatalf("shard %d parity: %v", s, err)
				}
			}
		})
	}
}

// TestClusterSpanGroups drives concurrent spans, aligned to whole shard
// units, through two shards whose frontends hold unit ops for 10 s. Every
// shard piece travels as a wire stream and reaches its frontend as span
// groups, which dispatch at once, so no span may wait for the deadline.
// Each worker checks its own region byte for byte.
func TestClusterSpanGroups(t *testing.T) {
	const unitBytes = 8 * shardStoreUnit // 8 array units: every piece streams
	const deadline = 10 * time.Second
	tc := startCluster(t, unitBytes, []int64{64, 64}, cluster.ByCapacity, serve.Config{FlushDelay: deadline, QueueDepth: 64})
	c := tc.open(t, cluster.Options{})

	const workers = 4
	units := c.Size() / unitBytes / workers // shard units per worker region
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			base := int64(w) * units * unitBytes
			mirror := make([]byte, units*unitBytes)
			buf := make([]byte, len(mirror))
			for op := 0; op < 40; op++ {
				first := rng.Int63n(units)
				off := first * unitBytes
				p := buf[:(1+rng.Int63n(units-first))*unitBytes]
				if op%2 == 0 {
					rng.Read(p)
					if n, err := c.WriteAt(p, base+off); err != nil || n != len(p) {
						t.Errorf("worker %d op %d: WriteAt(%d B @ %d) = %d, %v", w, op, len(p), base+off, n, err)
						return
					}
					copy(mirror[off:], p)
					continue
				}
				if n, err := c.ReadAt(p, base+off); err != nil || n != len(p) {
					t.Errorf("worker %d op %d: ReadAt(%d B @ %d) = %d, %v", w, op, len(p), base+off, n, err)
					return
				}
				if !bytes.Equal(p, mirror[off:off+int64(len(p))]) {
					t.Errorf("worker %d op %d: read [%d,+%d) diverges from mirror", w, op, base+off, len(p))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if el := time.Since(start); el > deadline/2 {
		t.Errorf("aligned span traffic took %v; some piece waited for the %v flush deadline", el, deadline)
	}
	for s, ts := range tc.shards {
		if st := ts.front.Stats(); st.FlushDeadline != 0 {
			t.Errorf("shard %d: %d deadline flushes, want 0 (stats %+v)", s, st.FlushDeadline, st)
		}
		if err := ts.store.VerifyParity(); err != nil {
			t.Errorf("shard %d parity: %v", s, err)
		}
	}
}

// TestClusterBounds pins edge semantics: EOF-prefix reads, rejected
// writes past the end, negative offsets, and empty spans.
func TestClusterBounds(t *testing.T) {
	const unitBytes = 64
	tc := startCluster(t, unitBytes, []int64{4, 4}, cluster.ByCapacity, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{})
	size := c.Size()

	pattern := make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	if _, err := c.WriteAt(pattern, 0); err != nil {
		t.Fatal(err)
	}

	// Read crossing the end returns the available prefix and io.EOF.
	p := make([]byte, 100)
	n, err := c.ReadAt(p, size-10)
	if n != 10 || err != io.EOF {
		t.Fatalf("tail read = %d, %v; want 10, EOF", n, err)
	}
	if !bytes.Equal(p[:10], pattern[size-10:]) {
		t.Fatal("tail read bytes diverge")
	}
	// At or past the end: immediate EOF.
	if n, err := c.ReadAt(p, size); n != 0 || err != io.EOF {
		t.Fatalf("read at end = %d, %v; want 0, EOF", n, err)
	}
	// Negative offsets are errors, not EOF.
	if _, err := c.ReadAt(p, -1); err == nil || err == io.EOF {
		t.Fatalf("negative read offset: %v", err)
	}
	// Writes never extend the namespace.
	if _, err := c.WriteAt(p, size-10); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := c.WriteAt(p, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	// Empty spans are cheap no-ops.
	if n, err := c.ReadAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty read = %d, %v", n, err)
	}
	if n, err := c.WriteAt(nil, 0); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

// TestOpenValidation: Open refuses geometry the live shards cannot
// serve, identifying the offending shard.
func TestOpenValidation(t *testing.T) {
	tc := startCluster(t, 64, []int64{4, 4}, cluster.ByCapacity, serve.Config{FlushDelay: -1})

	// Shard-unit not a multiple of the array's stripe unit.
	man := tc.man.Clone()
	man.UnitBytes = shardStoreUnit + 8
	var se *cluster.ShardError
	if _, err := cluster.Open(man, cluster.Options{}); !errors.As(err, &se) {
		t.Fatalf("misaligned unit: %v, want ShardError", err)
	}

	// Manifest placing more bytes than the shard's array holds (rounded
	// to shard 0's 4 units so the map itself still builds).
	man = tc.man.Clone()
	over := tc.shards[1].store.Size()/man.UnitBytes + 1
	man.Shards[1].Units = (over + 3) / 4 * 4
	se = nil
	if _, err := cluster.Open(man, cluster.Options{}); !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("oversized placement: %v, want ShardError on shard 1", err)
	}

	// An unreachable shard fails Open (strict connect), naming the shard.
	man = tc.man.Clone()
	man.Shards[0].Addr = "127.0.0.1:1"
	se = nil
	if _, err := cluster.Open(man, cluster.Options{DialTimeout: 500 * time.Millisecond}); !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("unreachable shard: %v, want ShardError on shard 0", err)
	}
}

// TestClusterStats: per-shard stats reflect traffic and live server
// state, including a degraded shard.
func TestClusterStats(t *testing.T) {
	tc := startCluster(t, 64, []int64{6, 6, 6}, cluster.RoundRobin, serve.Config{FlushDelay: -1})
	c := tc.open(t, cluster.Options{})

	p := make([]byte, c.Size())
	if _, err := c.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}

	if err := tc.shards[1].store.Fail(2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if len(st) != 3 {
		t.Fatalf("%d shard stats, want 3", len(st))
	}
	for s, ss := range st {
		if ss.Addr != tc.shards[s].addr {
			t.Errorf("shard %d addr %q, want %q", s, ss.Addr, tc.shards[s].addr)
		}
		if ss.Ops == 0 || ss.P50 == 0 || ss.Mean == 0 {
			t.Errorf("shard %d: no traffic recorded: %+v", s, ss)
		}
		want := cluster.ShardHealthy
		if s == 1 {
			want = cluster.ShardDegraded
		}
		if ss.State != want {
			t.Errorf("shard %d state %q, want %q", s, ss.State, want)
		}
		if ss.Server.Frontend.Submitted == 0 {
			t.Errorf("shard %d: server counters empty", s)
		}
	}

	// A degraded shard still serves: reads reconstruct through parity.
	if _, err := c.ReadAt(p, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
}
