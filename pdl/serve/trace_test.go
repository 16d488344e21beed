package serve_test

import (
	"bytes"
	"context"
	"testing"

	"repro/pdl/serve"
	"repro/pdl/sim"
)

// TestFrontendRecordTrace attaches a trace recorder to a Frontend,
// drives a mixed request stream through it (unit ops, then span groups),
// and asserts the decoded trace reproduces that stream: kinds, classes,
// and addresses in admission order, a group unit by unit, at the
// server's unit size.
func TestFrontendRecordTrace(t *testing.T) {
	const unitSize = 64
	f := mustFrontend(t, 13, 4, 2, unitSize, serve.Config{FlushDelay: -1})
	ctx := context.Background()
	buf := make([]byte, unitSize)

	// A few unrecorded ops first: recording starts where RecordTrace is
	// called, not at Frontend birth.
	for i := 0; i < 3; i++ {
		if err := f.Write(ctx, i, payload(buf, i)); err != nil {
			t.Fatal(err)
		}
	}

	var rec bytes.Buffer
	tw, err := sim.NewTraceWriter(&rec, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	f.RecordTrace(tw)

	type sub struct {
		kind    serve.Kind
		logical int
		class   serve.Class
	}
	subs := []sub{
		{serve.Write, 5, serve.Foreground},
		{serve.Read, 5, serve.Foreground},
		{serve.Write, 9, serve.Background},
		{serve.Read, 0, serve.Background},
		{serve.Read, 5, serve.Foreground},
	}
	for _, s := range subs {
		err := f.Do(ctx, serve.Op{Kind: s.kind, Logical: s.logical, Class: s.class, Buf: payload(buf, s.logical)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A span group records one entry per unit, in logical order.
	span := make([]byte, 3*unitSize)
	if err := f.DoGroup(ctx, serve.Op{Kind: serve.Write, Logical: 6, Buf: span}); err != nil {
		t.Fatal(err)
	}
	if err := f.DoGroup(ctx, serve.Op{Kind: serve.Read, Class: serve.Background, Logical: 2, Buf: span[:2*unitSize]}); err != nil {
		t.Fatal(err)
	}
	subs = append(subs,
		sub{serve.Write, 6, serve.Foreground}, sub{serve.Write, 7, serve.Foreground}, sub{serve.Write, 8, serve.Foreground},
		sub{serve.Read, 2, serve.Background}, sub{serve.Read, 3, serve.Background})

	// Detach, then prove post-detach ops are not recorded.
	f.RecordTrace(nil)
	if err := f.Write(ctx, 1, payload(buf, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Ops() != int64(len(subs)) {
		t.Fatalf("recorded %d ops, want %d", tw.Ops(), len(subs))
	}

	tr, err := sim.DecodeTrace(rec.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tr.UnitSize != unitSize {
		t.Fatalf("trace unit size = %d, want %d", tr.UnitSize, unitSize)
	}
	if len(tr.Ops) != len(subs) {
		t.Fatalf("decoded %d ops, want %d", len(tr.Ops), len(subs))
	}
	for i, s := range subs {
		op := tr.Ops[i]
		wantKind := sim.Read
		if s.kind == serve.Write {
			wantKind = sim.Write
		}
		if op.Kind != wantKind || op.Logical != s.logical || op.Background != (s.class == serve.Background) {
			t.Errorf("op %d = %+v, want %+v", i, op, s)
		}
	}
}
