// Package serve is the network-facing front end of the parity-declustered
// serving stack: a Frontend turns many independent client requests into
// efficient batched array I/O against a pdl/store Store, and Server/Client
// carry those requests over TCP with a small length-prefixed protocol
// (see the wire subpackage).
//
// The Frontend is a bounded submission queue plus a batcher: requests
// accumulate until the batch is full (flush-on-full) or a deadline
// expires (flush-on-deadline), then execute as one store.ReadVec or
// store.WriteVec pass — one lock acquisition per touched stripe, and,
// when a stripe's worth of small writes coalesces, a single Condition 5
// full-stripe write instead of N read-modify-writes. The Server submits
// each span chunk as one group entry whose units share a pass, so a
// span's whole stripes always promote; a batch holding a group
// dispatches at once instead of waiting for the deadline. Admission
// applies backpressure (a full queue blocks, honoring context
// cancellation) and two priority classes: Foreground requests always
// dispatch before Background ones, so rebuild or scrub traffic is
// throttled while clients are active.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/pdl/obs"
	"repro/pdl/sim"
	"repro/pdl/store"
)

// ErrClosed is returned by submissions after Close.
var ErrClosed = errors.New("serve: frontend closed")

// Class is a request priority class.
type Class uint8

const (
	// Foreground is client traffic: always dispatched first.
	Foreground Class = iota

	// Background is maintenance traffic (rebuild reads, scrubs): it is
	// admitted through its own queue and dispatched only when no
	// foreground request is waiting.
	Background
)

// Kind distinguishes the two request kinds.
type Kind uint8

const (
	// Read fills Op.Buf with a logical unit's payload.
	Read Kind = iota

	// Write stores Op.Buf as a logical unit's payload.
	Write
)

// Op is one unit-granularity request submitted to a Frontend.
type Op struct {
	// Kind selects read or write.
	Kind Kind

	// Class is the priority class (zero value: Foreground).
	Class Class

	// Logical is the data unit addressed.
	Logical int

	// Buf is the unit payload buffer, exactly UnitSize bytes: the
	// destination for reads, the source for writes. The caller must not
	// touch it until the request completes.
	Buf []byte
}

// Config tunes a Frontend. The zero value selects the defaults.
type Config struct {
	// QueueDepth bounds each class's submission queue and caps the batch
	// size, both counted in queue entries: at most QueueDepth entries
	// coalesce into one store pass, and a class with QueueDepth entries
	// waiting blocks further admissions (backpressure). A unit op is one
	// entry; so is a span chunk the Server submits as a group (up to
	// wire.MaxChunk bytes of consecutive units), so a pass carries at
	// most QueueDepth unit ops or QueueDepth chunks' units. Default 64.
	QueueDepth int

	// FlushDelay is how long an open batch of unit ops waits for more
	// requests before flushing (flush-on-deadline). Negative means flush
	// as soon as the queues are momentarily empty — lowest latency,
	// smallest batches. Zero selects the default, 100µs. On an idle host
	// the default waits about 1.1ms, not 100µs: Go's netpoller sleeps in
	// whole milliseconds, so a sub-millisecond timer fires at the next
	// tick. Sustained load flushes on full instead and never waits for
	// the timer. Span chunks never wait for it either: a batch holding a
	// group dispatches at once with whatever is already queued.
	FlushDelay time.Duration

	// Workers is the number of executor goroutines draining batches;
	// batches on distinct stripes execute in parallel under the store's
	// striped locks. Default GOMAXPROCS.
	Workers int
}

// DefaultQueueDepth is the submission-queue bound when Config.QueueDepth
// is zero.
const DefaultQueueDepth = 64

// DefaultFlushDelay is the batch deadline when Config.FlushDelay is zero.
const DefaultFlushDelay = 100 * time.Microsecond

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.FlushDelay == 0 {
		out.FlushDelay = DefaultFlushDelay
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

// Stats is a point-in-time snapshot of a Frontend's counters.
type Stats struct {
	// Submitted counts admitted units; Background of them arrived on the
	// background queue. Every unit counter (Submitted, Background,
	// Completed, Rejected, BatchedOps) counts each unit of a span group,
	// so a group of n units weighs the same as n unit ops.
	Submitted, Background int64

	// Completed counts finished units; Rejected counts units refused at
	// admission (validation, cancellation, or ErrClosed).
	Completed, Rejected int64

	// Batches counts dispatched batches; BatchedOps the units they
	// carried, so BatchedOps/Batches is the mean coalescing factor.
	Batches, BatchedOps int64

	// FlushFull, FlushDeadline and FlushImmediate count why batches
	// dispatched: the batch reached QueueDepth entries; FlushDelay
	// expired first; or the batch took only what was already queued and
	// never waited, because it held a span group, FlushDelay is negative,
	// or the frontend was closing.
	FlushFull, FlushDeadline, FlushImmediate int64

	// FgQueue and BgQueue are the instantaneous submission-queue depths
	// per class, in entries (a span group is one entry).
	FgQueue, BgQueue int

	// ForegroundLatency and BackgroundLatency summarize end-to-end
	// request latency (admission to completion) per class.
	ForegroundLatency, BackgroundLatency obs.Summary
}

// request is the pooled internal form of an Op, or of a span group: op
// then addresses n consecutive units from op.Logical, op.Buf holding
// them back to back.
type request struct {
	op    Op
	n     int         // units carried: 1 for a unit op
	group bool        // a span group, dispatched without waiting
	start time.Time   // admission time, for end-to-end latency
	cb    func(error) // async completion; nil for sync waiters
	done  chan error  // sync completion, capacity 1, reused with the request
}

// Frontend batches and executes requests against a Store. All methods
// are safe for concurrent use.
type Frontend struct {
	s   *store.Store
	cfg Config

	fg, bg chan *request
	exec   chan *[]*request
	quit   chan struct{}

	// closeMu serializes admission against Close: submitters hold it
	// shared across the closed-check and the enqueue, so after Close
	// takes it exclusively no new request can enter the queues.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	reqPool   sync.Pool
	batchPool sync.Pool

	submitted, background, completed, rejected atomic.Int64
	batches, batchedOps                        atomic.Int64
	flushFull, flushDL, flushNow               atomic.Int64

	// latHist records end-to-end request latency (admission to
	// completion), indexed by Class.
	latHist [2]obs.Hist

	// trace, when set, records every admitted request (kind, class,
	// logical, arrival time) into a sim.TraceWriter — the capture side
	// of the scenario engine's record/replay loop. It is an atomic
	// pointer so the hot path pays one load and a nil check when
	// recording is off.
	trace atomic.Pointer[sim.TraceWriter]
}

// New starts a Frontend serving s. Close releases its goroutines; the
// Store itself stays open (the caller owns it).
func New(s *store.Store, cfg Config) *Frontend {
	if s == nil {
		panic("serve: New: nil Store")
	}
	c := cfg.withDefaults()
	f := &Frontend{
		s:    s,
		cfg:  c,
		fg:   make(chan *request, c.QueueDepth),
		bg:   make(chan *request, c.QueueDepth),
		exec: make(chan *[]*request, c.Workers),
		quit: make(chan struct{}),
	}
	f.reqPool.New = func() any { return &request{done: make(chan error, 1)} }
	f.batchPool.New = func() any {
		b := make([]*request, 0, c.QueueDepth)
		return &b
	}
	f.wg.Add(1 + c.Workers)
	go f.batcher()
	for i := 0; i < c.Workers; i++ {
		go f.worker()
	}
	return f
}

// Store returns the underlying byte store (for admin operations: Fail,
// Rebuild, Stats, VerifyParity).
func (f *Frontend) Store() *store.Store { return f.s }

// Stats snapshots the frontend counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Submitted:         f.submitted.Load(),
		Background:        f.background.Load(),
		Completed:         f.completed.Load(),
		Rejected:          f.rejected.Load(),
		Batches:           f.batches.Load(),
		BatchedOps:        f.batchedOps.Load(),
		FlushFull:         f.flushFull.Load(),
		FlushDeadline:     f.flushDL.Load(),
		FlushImmediate:    f.flushNow.Load(),
		FgQueue:           len(f.fg),
		BgQueue:           len(f.bg),
		ForegroundLatency: f.latHist[Foreground].Summary(),
		BackgroundLatency: f.latHist[Background].Summary(),
	}
}

// RecordTrace starts recording every admitted request into tw in
// admission order, a span group as one entry per unit in logical order;
// nil stops recording. The caller owns the writer and its Flush.
// Recording captures the live request stream a deployment actually
// served, so a scenario can replay it later (with original timing or a
// speed multiplier) against any target.
func (f *Frontend) RecordTrace(tw *sim.TraceWriter) {
	f.trace.Store(tw)
}

// Close drains the queues, executes what was already admitted, and stops
// the batcher and workers. Further submissions return ErrClosed. It does
// not close the Store.
func (f *Frontend) Close() error {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return nil
	}
	f.closed = true
	f.closeMu.Unlock()
	close(f.quit)
	f.wg.Wait()
	return nil
}

// Do submits op and blocks until it completes, returning the execution
// error. Admission blocks while op's class queue is full; ctx cancels
// the wait for admission only — once admitted, the op runs to completion
// (its buffer is in flight and must not be reused earlier).
func (f *Frontend) Do(ctx context.Context, op Op) error {
	return f.do(ctx, op, false)
}

// Go submits op asynchronously: complete is invoked exactly once (on an
// executor goroutine) with the op's execution error. A non-nil return
// means the op was not admitted and complete will not be called.
func (f *Frontend) Go(ctx context.Context, op Op, complete func(error)) error {
	if complete == nil {
		return errors.New("serve: Go: nil completion")
	}
	_, err := f.submit(ctx, op, false, complete)
	return err
}

// doGroup submits a span group and blocks until it completes: op.Buf
// holds len(op.Buf)/UnitSize consecutive units from op.Logical. The
// group is one queue entry, its units share one store pass (so the
// whole stripes it covers promote to full-stripe writes), and the batch
// that carries it dispatches at once. Otherwise it behaves like Do.
func (f *Frontend) doGroup(ctx context.Context, op Op) error {
	return f.do(ctx, op, true)
}

// goGroup is doGroup's asynchronous form, completing like Go: complete
// runs once with the error of the pass that carried the group.
func (f *Frontend) goGroup(ctx context.Context, op Op, complete func(error)) error {
	_, err := f.submit(ctx, op, true, complete)
	return err
}

func (f *Frontend) do(ctx context.Context, op Op, group bool) error {
	r, err := f.submit(ctx, op, group, nil)
	if err != nil {
		return err
	}
	err = <-r.done
	f.reqPool.Put(r)
	return err
}

// Read serves a foreground unit read: dst must be UnitSize bytes.
func (f *Frontend) Read(ctx context.Context, logical int, dst []byte) error {
	return f.Do(ctx, Op{Kind: Read, Logical: logical, Buf: dst})
}

// Write serves a foreground unit write: src must be UnitSize bytes.
func (f *Frontend) Write(ctx context.Context, logical int, src []byte) error {
	return f.Do(ctx, Op{Kind: Write, Logical: logical, Buf: src})
}

// submit validates and enqueues op (a span group when group is set), so
// batch execution errors are real I/O errors, never one request's bad
// arguments.
func (f *Frontend) submit(ctx context.Context, op Op, group bool, cb func(error)) (*request, error) {
	n, err := f.validate(op, group)
	if err != nil {
		f.rejected.Add(int64(max(n, 1)))
		return nil, err
	}
	r := f.reqPool.Get().(*request)
	r.op = op
	r.n = n
	r.group = group
	r.start = time.Now()
	r.cb = cb
	q := f.fg
	if op.Class == Background {
		q = f.bg
	}
	// The admission lock is held across the (possibly blocking) enqueue:
	// Close cannot start draining while any submitter is mid-send, so an
	// admitted request is always executed. A full queue therefore holds
	// Close up until the batcher drains the blocked senders — or their
	// contexts cancel.
	f.closeMu.RLock()
	if f.closed {
		f.closeMu.RUnlock()
		f.reqPool.Put(r)
		f.rejected.Add(int64(n))
		return nil, ErrClosed
	}
	select {
	case q <- r:
		f.closeMu.RUnlock()
	case <-ctx.Done():
		f.closeMu.RUnlock()
		f.reqPool.Put(r)
		f.rejected.Add(int64(n))
		return nil, ctx.Err()
	}
	f.submitted.Add(int64(n))
	if op.Class == Background {
		f.background.Add(int64(n))
	}
	if tw := f.trace.Load(); tw != nil {
		kind := sim.Read
		if op.Kind == Write {
			kind = sim.Write
		}
		// Best effort: a sticky writer error surfaces at Flush; dropping
		// a trace op must never fail the request it shadows.
		for i := 0; i < n; i++ {
			_ = tw.Record(kind, op.Logical+i, op.Class == Background, r.start)
		}
	}
	return r, nil
}

// validate checks op and returns the units it carries: 1 for a unit op,
// len(op.Buf)/UnitSize for a group (0 when that is not a whole count).
func (f *Frontend) validate(op Op, group bool) (int, error) {
	unit, capa := f.s.UnitSize(), f.s.Capacity()
	n := 1
	if group {
		n = len(op.Buf) / unit
		if n == 0 || len(op.Buf)%unit != 0 {
			return 0, fmt.Errorf("serve: group buf is %d bytes, want a positive multiple of unit size %d", len(op.Buf), unit)
		}
	}
	if op.Kind != Read && op.Kind != Write {
		return n, fmt.Errorf("serve: bad op kind %d", op.Kind)
	}
	if op.Class != Foreground && op.Class != Background {
		return n, fmt.Errorf("serve: bad class %d", op.Class)
	}
	if op.Logical < 0 || op.Logical > capa-n {
		if group {
			return n, fmt.Errorf("serve: group [%d,+%d) outside [0,%d)", op.Logical, n, capa)
		}
		return n, fmt.Errorf("serve: logical %d outside [0,%d)", op.Logical, capa)
	}
	if len(op.Buf) != n*unit {
		return n, fmt.Errorf("serve: buf is %d bytes, want unit size %d", len(op.Buf), unit)
	}
	return n, nil
}

// batcher collects submissions into batches and hands them to the
// workers: flush-on-full at QueueDepth, flush-on-deadline at FlushDelay,
// immediate flush once a group is aboard, foreground strictly before
// background.
func (f *Frontend) batcher() {
	defer f.wg.Done()
	defer close(f.exec)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	for {
		r := f.first()
		if r == nil {
			return
		}
		bp := f.batchPool.Get().(*[]*request)
		batch := append((*bp)[:0], r)
		batch = f.fill(batch, timer)
		*bp = batch
		units := 0
		for _, r := range batch {
			units += r.n
		}
		f.batches.Add(1)
		f.batchedOps.Add(int64(units))
		f.exec <- bp
	}
}

// first blocks for a batch's opening request, foreground preferred; it
// returns nil once the frontend is closed and the queues are drained.
func (f *Frontend) first() *request {
	select {
	case r := <-f.fg:
		return r
	default:
	}
	select {
	case r := <-f.fg:
		return r
	case r := <-f.bg:
		return r
	case <-f.quit:
		// Closed: nothing new can arrive; serve what is still queued.
		return f.takeWaiting()
	}
}

// takeWaiting returns an already-queued request, foreground first, or
// nil when both queues are momentarily empty.
func (f *Frontend) takeWaiting() *request {
	select {
	case r := <-f.fg:
		return r
	default:
	}
	select {
	case r := <-f.bg:
		return r
	default:
		return nil
	}
}

// fill grows batch until full or the flush deadline, foreground first.
// A group aboard ends the wait: the batch then takes only what is
// already queued.
func (f *Frontend) fill(batch []*request, timer *time.Timer) []*request {
	if f.cfg.FlushDelay < 0 || batch[0].group {
		// Take whatever is already waiting, then flush.
		return f.finishFill(batch)
	}
	timer.Reset(f.cfg.FlushDelay)
	for len(batch) < f.cfg.QueueDepth {
		var r *request
		select {
		case r = <-f.fg:
		default:
			select {
			case r = <-f.fg:
			case r = <-f.bg:
			case <-timer.C:
				f.flushDL.Add(1)
				return batch
			case <-f.quit:
				stopTimer(timer)
				return f.finishFill(batch)
			}
		}
		batch = append(batch, r)
		if r.group {
			stopTimer(timer)
			return f.finishFill(batch)
		}
	}
	stopTimer(timer)
	f.flushFull.Add(1)
	return batch
}

// finishFill tops the batch up with already-waiting requests and
// accounts the flush reason: full if the batch hit QueueDepth,
// immediate (it stopped at a momentarily empty queue) otherwise.
func (f *Frontend) finishFill(batch []*request) []*request {
	for len(batch) < f.cfg.QueueDepth {
		r := f.takeWaiting()
		if r == nil {
			f.flushNow.Add(1)
			return batch
		}
		batch = append(batch, r)
	}
	f.flushFull.Add(1)
	return batch
}

func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// execState is one worker's reusable partition scratch.
type execState struct {
	rops, wops   []store.VecOp
	rreqs, wreqs []*request
}

func (f *Frontend) worker() {
	defer f.wg.Done()
	var ex execState
	for bp := range f.exec {
		f.run(&ex, *bp)
		*bp = (*bp)[:0]
		f.batchPool.Put(bp)
	}
}

// run executes one batch: writes as one WriteVec pass (coalescing plus
// full-stripe promotion), then reads as one ReadVec pass. A group
// contributes all its units to its kind's pass.
func (f *Frontend) run(ex *execState, batch []*request) {
	ex.rops, ex.wops = ex.rops[:0], ex.wops[:0]
	ex.rreqs, ex.wreqs = ex.rreqs[:0], ex.wreqs[:0]
	unit := f.s.UnitSize()
	for _, r := range batch {
		ops, reqs := &ex.rops, &ex.rreqs
		if r.op.Kind == Write {
			ops, reqs = &ex.wops, &ex.wreqs
		}
		*reqs = append(*reqs, r)
		for i := 0; i < r.n; i++ {
			*ops = append(*ops, store.VecOp{Logical: r.op.Logical + i, Buf: r.op.Buf[i*unit : (i+1)*unit]})
		}
	}
	if len(ex.wops) > 0 {
		err := f.s.WriteVec(ex.wops)
		f.finish(ex.wreqs, err)
	}
	if len(ex.rops) > 0 {
		err := f.s.ReadVec(ex.rops)
		f.finish(ex.rreqs, err)
	}
}

// finish completes a batch's requests with its vec error. A vec pass
// stops at the first failure, so err is reported to every request of the
// pass (the store's error names the failing disk operation).
func (f *Frontend) finish(reqs []*request, err error) {
	for _, r := range reqs {
		f.completed.Add(int64(r.n))
		// Each unit of a group records the group's latency, so the
		// histogram counts units like Completed does.
		lat := time.Since(r.start).Nanoseconds()
		for i := 0; i < r.n; i++ {
			f.latHist[r.op.Class].RecordNanos(lat)
		}
		if cb := r.cb; cb != nil {
			r.cb = nil
			f.reqPool.Put(r)
			cb(err)
			continue
		}
		r.done <- err
	}
}
