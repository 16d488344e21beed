package serve_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/pdl/serve"
	"repro/pdl/store"
)

// diskReads sums the physical read operations issued across s's disks.
func diskReads(s *store.Store) int64 {
	var n int64
	for _, d := range s.Stats().Disks {
		n += d.Reads
	}
	return n
}

// TestSpanGroupSkipsFlushDeadline is the regression for span chunks
// waiting behind the unit-op flush deadline: with a 10 s deadline and a
// queue far deeper than the span, a stripe-aligned WriteAt and ReadAt
// over TCP must finish at once, and the write must take the Condition 5
// full-stripe path on every stripe (no pre-reads), because each chunk's
// units share one store pass.
func TestSpanGroupSkipsFlushDeadline(t *testing.T) {
	const deadline = 10 * time.Second
	c, front := spanHarness(t, serve.Config{FlushDelay: deadline, QueueDepth: 64})
	s := front.Store()
	unitSize := c.UnitSize()
	m := s.Mapper()
	width := m.DataUnits() / m.Stripes() // data units per stripe
	const stripes = 3
	units := stripes * width
	want := payload(make([]byte, units*unitSize), 7)

	reads0 := diskReads(s)
	start := time.Now()
	if n, err := c.WriteAt(want, 0); err != nil || n != len(want) {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	if el := time.Since(start); el > deadline/5 {
		t.Errorf("WriteAt of %d whole stripes took %v; span chunks waited for the %v flush deadline", stripes, el, deadline)
	}
	if pre := diskReads(s) - reads0; pre != 0 {
		t.Errorf("WriteAt of %d whole stripes issued %d pre-reads, want 0 (full-stripe writes)", stripes, pre)
	}

	got := make([]byte, len(want))
	start = time.Now()
	if n, err := c.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt: n=%d err=%v", n, err)
	}
	if el := time.Since(start); el > deadline/5 {
		t.Errorf("ReadAt of %d whole stripes took %v; span chunks waited for the %v flush deadline", stripes, el, deadline)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadAt returned different bytes than WriteAt stored")
	}
	if err := s.VerifyParity(); err != nil {
		t.Fatal(err)
	}

	st := front.Stats()
	if st.FlushDeadline != 0 || st.FlushImmediate == 0 {
		t.Errorf("flush reasons: deadline %d, immediate %d; want 0 and > 0", st.FlushDeadline, st.FlushImmediate)
	}
	if st.Submitted != int64(2*units) || st.Completed != st.Submitted || st.BatchedOps != st.Submitted {
		t.Errorf("unit counters: submitted %d, completed %d, batched %d; want %d each", st.Submitted, st.Completed, st.BatchedOps, 2*units)
	}
}

// TestFrontendGroupTakesQueued: a unit op waiting behind a long deadline
// rides out with the next group, in one batch, counted in units.
func TestFrontendGroupTakesQueued(t *testing.T) {
	const unitSize = 32
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{FlushDelay: 10 * time.Second})
	ctx := context.Background()
	unitDone := make(chan error, 1)
	one := payload(make([]byte, unitSize), 1)
	if err := f.Go(ctx, serve.Op{Kind: serve.Write, Logical: 0, Buf: one}, func(err error) { unitDone <- err }); err != nil {
		t.Fatal(err)
	}
	group := payload(make([]byte, 4*unitSize), 2)
	if err := f.DoGroup(ctx, serve.Op{Kind: serve.Write, Logical: 4, Buf: group}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-unitDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued unit op did not dispatch with the group")
	}
	st := f.Stats()
	if st.Batches != 1 || st.BatchedOps != 5 || st.Submitted != 5 || st.Completed != 5 {
		t.Errorf("stats %+v, want 1 batch of 5 units", st)
	}
	if st.FlushImmediate != 1 || st.FlushDeadline != 0 || st.FlushFull != 0 {
		t.Errorf("flush reasons full/deadline/immediate = %d/%d/%d, want 0/0/1", st.FlushFull, st.FlushDeadline, st.FlushImmediate)
	}

	// The group's units landed where a unit read finds them.
	got := make([]byte, unitSize)
	back := make([]byte, 4*unitSize)
	if err := f.DoGroup(ctx, serve.Op{Kind: serve.Read, Class: serve.Background, Logical: 4, Buf: back}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, group) {
		t.Error("group read differs from group write")
	}
	if err := f.Store().Read(6, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, group[2*unitSize:3*unitSize]) {
		t.Error("unit 6 differs from the group's third unit")
	}
	if st := f.Stats(); st.Background != 4 {
		t.Errorf("Background = %d, want 4 (one per unit of the background group)", st.Background)
	}
}

// TestFrontendUnitFlushReasons: with no group aboard, a lone unit op
// still waits out a positive FlushDelay and counts as a deadline flush;
// with FlushDelay < 0 there is no deadline, so it counts as immediate.
func TestFrontendUnitFlushReasons(t *testing.T) {
	const unitSize = 32
	for _, tc := range []struct {
		delay               time.Duration
		deadline, immediate int64
	}{
		{50 * time.Millisecond, 1, 0},
		{-1, 0, 1},
	} {
		f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{FlushDelay: tc.delay})
		start := time.Now()
		if err := f.Write(context.Background(), 0, make([]byte, unitSize)); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); el < tc.delay {
			t.Errorf("FlushDelay %v: lone unit write returned after %v, before the deadline", tc.delay, el)
		}
		if st := f.Stats(); st.FlushDeadline != tc.deadline || st.FlushImmediate != tc.immediate {
			t.Errorf("FlushDelay %v: flush reasons deadline/immediate = %d/%d, want %d/%d",
				tc.delay, st.FlushDeadline, st.FlushImmediate, tc.deadline, tc.immediate)
		}
	}
}

// TestFrontendGroupValidation pins admission-time rejection of groups,
// counted in units where the unit count is known.
func TestFrontendGroupValidation(t *testing.T) {
	const unitSize = 16
	f := mustFrontend(t, 9, 3, 1, unitSize, serve.Config{})
	ctx := context.Background()
	capa := f.Store().Capacity()
	cases := []struct {
		name  string
		op    serve.Op
		units int64
	}{
		{"empty buffer", serve.Op{Kind: serve.Read, Buf: nil}, 1},
		{"partial unit", serve.Op{Kind: serve.Read, Buf: make([]byte, 3*unitSize/2)}, 1},
		{"runs past capacity", serve.Op{Kind: serve.Write, Logical: capa - 1, Buf: make([]byte, 2*unitSize)}, 2},
		{"negative start", serve.Op{Kind: serve.Write, Logical: -1, Buf: make([]byte, 2*unitSize)}, 2},
		{"bad kind", serve.Op{Kind: 9, Buf: make([]byte, 3*unitSize)}, 3},
		{"bad class", serve.Op{Kind: serve.Read, Class: 7, Buf: make([]byte, 3*unitSize)}, 3},
	}
	var want int64
	for _, tc := range cases {
		if err := f.DoGroup(ctx, tc.op); err == nil {
			t.Errorf("%s: admitted", tc.name)
		}
		want += tc.units
		if n := f.Stats().Rejected; n != want {
			t.Errorf("%s: Rejected = %d, want %d", tc.name, n, want)
		}
	}
	if err := f.GoGroup(ctx, serve.Op{Kind: serve.Read, Logical: capa - 2, Buf: make([]byte, 2*unitSize)}, func(error) {}); err != nil {
		t.Errorf("group ending at capacity refused: %v", err)
	}
	f.Close()
	if err := f.DoGroup(ctx, serve.Op{Kind: serve.Read, Buf: make([]byte, 2*unitSize)}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("DoGroup after Close = %v, want ErrClosed", err)
	}
}
