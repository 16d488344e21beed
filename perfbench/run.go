package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/pdl/store"
)

// env is one provisioned instance of a workload: the array(s), the
// serving stack above them, and the checker's model of their contents.
type env struct {
	model     *model
	slotUnits int // data units per generated slot
	spec      genSpec

	// do performs one op through the workload's top layer. buf is the
	// slot's payload: filled for writes, the destination for reads.
	do func(w int, o op, buf []byte) error

	// read fetches one slot through the top layer, for the end sweep.
	read func(slot int, buf []byte) error

	// stores are the arrays whose parity the end sweep verifies.
	stores []*store.Store

	// background, when set, runs beside the foreground for the whole
	// window until stop closes, and returns its rebuild cycles.
	background func(stop <-chan struct{}) ([]cycle, error)

	// rebuild, when set, runs one quiet rebuild cycle after the window
	// and returns the time to healthy. Cycles repeat for rebuildFor.
	// Workloads with a background rebuild leave it nil.
	rebuild    func(r *rng) (time.Duration, error)
	rebuildFor time.Duration

	layers  layers
	closers []func() error
}

func (e *env) onClose(f func() error) { e.closers = append(e.closers, f) }

// close releases the instance in reverse order of set-up.
func (e *env) close() error {
	var first error
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	e.closers = nil
	return first
}

// workerStats is what one closed-loop worker saw in the window.
type workerStats struct {
	attempted, errs, bad int64
	reads, writes        []uint32 // latencies in ns, in completion order
	marks                []mark   // one per sub-window, at its end
	firstErr             error
}

// mark records where a worker stood when a sub-window ended.
type mark struct {
	reads, writes int
	at            time.Duration // since the window began
}

// cycle is one rebuild cycle: when it ended and how long it took.
type cycle struct {
	end time.Time
	d   time.Duration
}

// quietRebuildSub is the sub-window of the quiet rebuild phase;
// rebuild_s is the median cycle of the quiet sub-windows.
const quietRebuildSub = 250 * time.Millisecond

// runStats aggregates a measured window and its end checks.
type runStats struct {
	window    *stealClock // one-second sub-windows of the measured window
	workers   []workerStats
	slotBytes int
	// rssMB is the peak resident memory when the window ends, before the
	// quiet rebuild phase, whose record of every cycle would tie the
	// peak to how many cycles fit in the phase.
	rssMB     float64
	rebuilds  []cycle
	rebuildAt *stealClock // the sub-windows rebuilds are judged by
	sweepBad  int64
	sweepN    int64
	parityErr []error
}

func (e *env) loop(seed uint64, w int, clock *stealClock) workerStats {
	g := newGen(seed, e.spec, w)
	buf := make([]byte, e.slotUnits*e.model.unit)
	n := len(clock.ticks) - 1
	s := workerStats{marks: make([]mark, 0, n)}
	nextMark := clock.start.Add(clock.sub)
	markAt := func(now time.Time) {
		for len(s.marks) < n && !now.Before(nextMark) {
			s.marks = append(s.marks, mark{len(s.reads), len(s.writes), now.Sub(clock.start)})
			nextMark = nextMark.Add(clock.sub)
		}
	}
	deadline := clock.end()
	for now := time.Now(); now.Before(deadline); markAt(now) {
		o := g.next()
		var t0 time.Time
		var bad bool
		var err error
		t0, now, bad, err = e.exec(w, o, buf, e.do, true)
		lat := uint32(min(now.Sub(t0), math.MaxUint32))
		s.attempted++
		switch {
		case err != nil:
			s.errs++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("op %d %s slot %d: %w", o.id, o.kind, o.slot, err)
			}
		case o.kind == opWrite:
			s.writes = append(s.writes, lat)
		default:
			if bad {
				s.bad++
			}
			s.reads = append(s.reads, lat)
		}
	}
	for len(s.marks) < n {
		s.marks = append(s.marks, mark{len(s.reads), len(s.writes), time.Since(clock.start)})
	}
	return s
}

// exec runs one op through fn and times the call. When checked, a
// write's payload is staged from the model before the call and committed
// after it, and a read's bytes are compared with the model: bad reports
// a read that returned the wrong bytes.
func (e *env) exec(w int, o op, buf []byte, fn func(int, op, []byte) error, checked bool) (t0, t1 time.Time, bad bool, err error) {
	u := o.slot * e.slotUnits
	var v uint32
	if checked && o.kind == opWrite {
		v = e.model.stage(buf, u, e.slotUnits)
	}
	t0 = time.Now()
	err = fn(w, o, buf)
	t1 = time.Now()
	switch {
	case !checked:
	case o.kind == opWrite:
		e.model.commit(u, e.slotUnits, v, err)
	case err == nil:
		bad = e.model.mismatches(buf, u, e.slotUnits) > 0
	}
	return t0, t1, bad, err
}

// measure runs the closed-loop window in one-second sub-windows, then
// the quiet rebuild cycles (when the workload has no background
// rebuild), then the end sweep.
func (e *env) measure(seed uint64, window time.Duration) (*runStats, error) {
	st := &runStats{workers: make([]workerStats, e.spec.workers), slotBytes: e.slotUnits * e.model.unit}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var bgErr error
	if e.background != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			st.rebuilds, bgErr = e.background(stop)
		}()
	}
	n := max(1, int((window+time.Second/2)/time.Second))
	st.window = startStealClock(window/time.Duration(n), n)
	st.rebuildAt = st.window
	var fg sync.WaitGroup
	for w := range st.workers {
		fg.Add(1)
		go func() {
			defer fg.Done()
			st.workers[w] = e.loop(seed, w, st.window)
		}()
	}
	fg.Wait()
	st.window.wait()
	close(stop)
	bg.Wait()
	if bgErr != nil {
		return nil, fmt.Errorf("background rebuild: %w", bgErr)
	}
	st.rssMB = maxRSSMB()
	if e.rebuild != nil {
		st.rebuildAt = startStealClock(quietRebuildSub, int(e.rebuildFor/quietRebuildSub))
		r := newRNG(mix(seed, "rebuild", 0))
		for time.Now().Before(st.rebuildAt.end()) {
			d, err := e.rebuild(r)
			if err != nil {
				return nil, fmt.Errorf("rebuild cycle %d: %w", len(st.rebuilds), err)
			}
			st.rebuilds = append(st.rebuilds, cycle{time.Now(), d})
		}
		st.rebuildAt.wait()
	}
	e.sweep(st)
	return st, nil
}

// sweep reads every slot back through the top layer and checks it, then
// verifies every array's parity.
func (e *env) sweep(st *runStats) {
	buf := make([]byte, e.slotUnits*e.model.unit)
	for slot := 0; slot < e.spec.slots; slot++ {
		st.sweepN += int64(e.slotUnits)
		if err := e.read(slot, buf); err != nil {
			st.sweepBad += int64(e.slotUnits)
			continue
		}
		st.sweepBad += int64(e.model.mismatches(buf, slot*e.slotUnits, e.slotUnits))
	}
	for _, s := range e.stores {
		st.parityErr = append(st.parityErr, s.VerifyParity())
	}
}

// report fills res with the end-to-end metrics and prints the sample
// counts and check results behind them.
func (st *runStats) report(out io.Writer, res *result) {
	var attempted, errs, bad int64
	for _, w := range st.workers {
		attempted += w.attempted
		errs += w.errs
		bad += w.bad
		if w.firstErr != nil {
			fmt.Fprintf(out, "first op error: %v\n", w.firstErr)
		}
	}
	// Rates and latencies pool the quiet sub-windows: their ops, their
	// time and their latency samples.
	quiet := st.window.quiet()
	var reads, writes []uint32
	var rate float64
	perOps := make([]float64, len(quiet))
	used := 0
	for _, w := range st.workers {
		var prev mark
		var ops int
		var secs float64
		for i, cur := range w.marks {
			n, d := cur.reads-prev.reads+cur.writes-prev.writes, (cur.at - prev.at).Seconds()
			if d > 0 {
				perOps[i] += float64(n) / d
			}
			if quiet[i] {
				reads = append(reads, w.reads[prev.reads:cur.reads]...)
				writes = append(writes, w.writes[prev.writes:cur.writes]...)
				ops += n
				secs += d
			}
			prev = cur
		}
		if secs > 0 {
			rate += float64(ops) / secs
		}
	}
	for _, q := range quiet {
		if q {
			used++
		}
	}
	res.Metrics["ops_per_s"] = metric{rate, "1/s"}
	res.Metrics["mb_per_s"] = metric{rate * float64(st.slotBytes) / 1e6, "MB/s"}
	for _, s := range [][]uint32{reads, writes} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	res.Metrics["read_p50_us"] = metric{percentile(reads, 0.50), "us"}
	res.Metrics["read_p90_us"] = metric{percentile(reads, 0.90), "us"}
	res.Metrics["write_p50_us"] = metric{percentile(writes, 0.50), "us"}
	res.Metrics["write_p90_us"] = metric{percentile(writes, 0.90), "us"}
	rb := cycleSeconds(st.rebuilds, st.rebuildAt)
	res.Metrics["rebuild_s"] = metric{median(rb), "s"}
	fmt.Fprintf(out, "sub-windows of %v: steal_ticks %v\n  ops_per_s %v\n",
		st.window.sub, fmtFloats(st.window.steal()), fmtFloats(perOps))
	fmt.Fprintf(out, "window: %v, %d ops attempted, %d errors, %d read mismatches\n", st.window.end().Sub(st.window.start), attempted, errs, bad)
	fmt.Fprintf(out, "samples: reads=%d writes=%d rebuild_cycles=%d of %d, from the %d of %d quietest sub-windows\n",
		len(reads), len(writes), len(rb), len(st.rebuilds), used, len(quiet))
	if len(rb) > 0 {
		q := append([]float64(nil), rb...)
		sort.Float64s(q)
		at := func(p float64) float64 { return q[int(p*float64(len(q)-1))] }
		fmt.Fprintf(out, "rebuild cycles: p10 %.4g s, p25 %.4g s, p50 %.4g s, p75 %.4g s, p90 %.4g s\n",
			at(0.1), at(0.25), at(0.5), at(0.75), at(0.9))
	}
	fmt.Fprintf(out, "not gated: read_p99_us %.4g write_p99_us %.4g\n", percentile(reads, 0.99), percentile(writes, 0.99))
	fmt.Fprintf(out, "sweep: %d units read back, %d mismatched\n", st.sweepN, st.sweepBad)
	var parityBad int64
	for i, err := range st.parityErr {
		if err != nil {
			parityBad++
			fmt.Fprintf(out, "verify parity: array %d: %v\n", i, err)
		}
	}
	res.Attempted = attempted + st.sweepN + int64(len(st.parityErr))
	res.Failed = errs + bad + st.sweepBad + parityBad
}

// percentile returns the nearest-rank p-quantile of sorted ns samples
// in µs.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}
