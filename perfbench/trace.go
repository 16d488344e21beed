package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/pdl"
	"repro/pdl/code"
	"repro/pdl/layout"
	"repro/pdl/plan"
	"repro/pdl/store"
)

// The traced run replays a workload's op stream at each rung of the
// layer ladder, with the workload's concurrency, and records a span per
// call into a layer's public function. Op ids are the same at every
// rung, so a layer's self time is its rung's time minus the rung below.

// span is one call into a layer: times are ns since the run began.
type span struct {
	layer      uint8
	id         uint64
	start, end int64
}

// maxSpansPerWorker caps the spans a worker keeps, per rung replayed so
// far; the aggregates cover every call either way.
const maxSpansPerWorker = 20000

type tracer struct {
	base   time.Time
	off    bool
	layers []string
	spans  [][]span // one slice per worker
}

func newTracer(workers int) *tracer {
	return &tracer{base: time.Now(), spans: make([][]span, workers)}
}

func (t *tracer) layer(name string) uint8 {
	for i, l := range t.layers {
		if l == name {
			return uint8(i)
		}
	}
	t.layers = append(t.layers, name)
	return uint8(len(t.layers) - 1)
}

// rec records a span on worker w's buffer; only w's goroutine calls it.
func (t *tracer) rec(w int, layer uint8, id uint64, t0, t1 time.Time) {
	if t.off || len(t.spans[w]) >= maxSpansPerWorker*len(t.layers) {
		return
	}
	t.spans[w] = append(t.spans[w], span{layer, id, t0.Sub(t.base).Nanoseconds(), t1.Sub(t.base).Nanoseconds()})
}

// write stores every kept span as CSV.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer,op_id,start_ns,end_ns")
	n := 0
	for _, ws := range t.spans {
		for _, s := range ws {
			fmt.Fprintf(bw, "%s,%d,%d,%d\n", t.layers[s.layer], s.id, s.start, s.end)
			n++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// rungStat aggregates one rung's calls by op kind.
type rungStat struct {
	n, ns             [2]int64
	elapsed           time.Duration
	attempted, failed int64
}

func (r rungStat) mean(k opKind) float64 {
	if r.n[k] == 0 {
		return 0
	}
	return float64(r.ns[k]) / float64(r.n[k])
}

func (r rungStat) meanAll() float64 {
	if r.n[0]+r.n[1] == 0 {
		return 0
	}
	return float64(r.ns[0]+r.ns[1]) / float64(r.n[0]+r.n[1])
}

func (r rungStat) ops() int64 { return r.n[0] + r.n[1] }

// add folds s into r; elapsed times add up, as for consecutive replays.
func (r *rungStat) add(s rungStat) {
	for k := range r.n {
		r.n[k] += s.n[k]
		r.ns[k] += s.ns[k]
	}
	r.elapsed += s.elapsed
	r.attempted += s.attempted
	r.failed += s.failed
}

// rung is one replay of the op stream against one layer.
type rung struct {
	layer string
	// checked rungs move real bytes: writes are staged from the model
	// and reads are compared with it.
	checked bool
	// background runs the workload's rebuild loop beside the replay.
	background bool
	fn         func(w int, o op, buf []byte) error
}

// replay runs r for d with the workload's workers and op streams.
func (t *tracer) replay(e *env, seed uint64, d time.Duration, r rung) (rungStat, error) {
	layer := t.layer(r.layer)
	per := make([]rungStat, e.spec.workers)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var bgErr error
	if r.background && e.background != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			_, bgErr = e.background(stop)
		}()
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGen(seed, e.spec, w)
			buf := make([]byte, e.slotUnits*e.model.unit)
			s := &per[w]
			for now := time.Now(); now.Before(deadline); {
				o := g.next()
				var t0 time.Time
				var bad bool
				var err error
				t0, now, bad, err = e.exec(w, o, buf, r.fn, r.checked)
				t.rec(w, layer, o.id, t0, now)
				s.n[o.kind]++
				s.ns[o.kind] += now.Sub(t0).Nanoseconds()
				if r.checked {
					s.attempted++
					if err != nil || bad {
						s.failed++
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	total := rungStat{elapsed: time.Since(start)}
	for _, s := range per {
		total.add(s)
	}
	return total, bgErr
}

// ladder collects the per-layer metrics of one traced run.
type ladder struct {
	e      *env
	seed   uint64
	t      *tracer
	res    *result
	budget time.Duration
	out    io.Writer
}

func (l *ladder) set(name string, v float64, unit string) {
	l.res.Metrics[name] = metric{v, unit}
}

// run replays one rung, adds its checks to the result, and prints it.
func (l *ladder) run(share float64, r rung) (rungStat, error) {
	d := time.Duration(float64(l.budget) * share)
	st, err := l.t.replay(l.e, l.seed, d, r)
	if err != nil {
		return st, fmt.Errorf("rung %s: %w", r.layer, err)
	}
	l.res.Attempted += st.attempted
	l.res.Failed += st.failed
	l.print(r.layer, st)
	return st, nil
}

func (l *ladder) print(layer string, st rungStat) {
	fmt.Fprintf(l.out, "rung %-18s ops=%-8d read=%10.0f ns write=%10.0f ns all=%10.0f ns failed=%d\n",
		layer, st.ops(), st.mean(opRead), st.mean(opWrite), st.meanAll(), st.failed)
}

// overhead replays the top rung untraced and traced, in alternating
// halves after an untraced warm-up, and reports the throughput tracing
// costs in percent. It returns the traced rung's aggregate and the op
// count of every replay.
func (l *ladder) overhead(share float64, r rung) (rungStat, int64, error) {
	l.t.layer(r.layer) // registered before the copy, so both share it
	off := *l.t
	off.off = true
	d := time.Duration(float64(l.budget) * share / 2)
	var plain, traced rungStat
	var ops int64
	for i := 0; i < 5; i++ {
		t, sum := &off, &plain
		switch {
		case i == 0:
			sum = &rungStat{}
		case i%2 == 0:
			t, sum = l.t, &traced
		}
		st, err := t.replay(l.e, l.seed, d, r)
		if err != nil {
			return traced, ops, fmt.Errorf("rung %s: %w", r.layer, err)
		}
		sum.add(st)
		ops += st.ops()
		l.res.Attempted += st.attempted
		l.res.Failed += st.failed
	}
	rate := func(s rungStat) float64 { return float64(s.ops()) / s.elapsed.Seconds() }
	pct := (rate(plain)/rate(traced) - 1) * 100
	l.set("trace.overhead_pct", pct, "%")
	l.print(r.layer, traced)
	fmt.Fprintf(l.out, "tracing overhead: untraced %.0f ops/s, traced %.0f ops/s (%.2f%%)\n", rate(plain), rate(traced), pct)
	return traced, ops, nil
}

// finish sweeps the arrays, writes the span file, and zero-fills the
// metrics of layers the workload does not reach.
func (l *ladder) finish(workdir, name string) error {
	var st runStats
	l.e.sweep(&st)
	l.res.Attempted += st.sweepN + int64(len(st.parityErr))
	l.res.Failed += st.sweepBad
	fmt.Fprintf(l.out, "sweep: %d units read back, %d mismatched\n", st.sweepN, st.sweepBad)
	for i, err := range st.parityErr {
		if err != nil {
			l.res.Failed++
			fmt.Fprintf(l.out, "verify parity: array %d: %v\n", i, err)
		}
	}
	for _, m := range perLayerMetrics {
		if _, ok := l.res.Metrics[m.name]; !ok {
			l.set(m.name, 0, m.unit)
		}
	}
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.csv", name, l.seed))
	n, err := l.t.write(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(l.out, "spans: %d written to %s\n", n, path)
	return nil
}

// perLayerMetrics lists every metric a traced run prints; a layer the
// workload does not reach reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"pdl.build_s", "s"}, {"pdl.mapper_s", "s"}, {"pdl.map_ns", "ns"}, {"pdl.degraded_map_ns", "ns"},
	{"plan.read_ns", "ns"}, {"plan.write_ns", "ns"}, {"plan.rebuild_ns", "ns"}, {"plan.rebuild_allocs", "count"},
	{"code.encode_mb_per_s", "MB/s"}, {"code.update_mb_per_s", "MB/s"}, {"code.reconstruct_mb_per_s", "MB/s"},
	{"store.read_ns", "ns"}, {"store.write_ns", "ns"},
	{"store.disk_ios_per_op", "count"}, {"store.disk_bytes_per_user_byte", "ratio"}, {"store.degraded_frac", "ratio"},
	{"store.rebuild_disk_s", "s"}, {"store.rebuild_read_imbalance", "ratio"}, {"store.rebuild_read_bytes_per_byte", "ratio"},
	{"serve.frontend_op_ns", "ns"}, {"serve.batch_mean", "count"}, {"serve.flush_deadline_frac", "ratio"},
	{"serve.client_op_ns", "ns"},
	{"cluster.span_ns", "ns"}, {"cluster.leg_ns", "ns"}, {"cluster.legs_per_span", "count"}, {"cluster.retries", "count"},
	{"trace.overhead_pct", "%"},
}

// buildCosts times pdl.Build and Result.NewMapper for the workload's
// geometry, median of five.
func (l *ladder) buildCosts(v, k int, diskUnits int, opts ...pdl.Option) error {
	var builds, mappers []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		res, err := pdl.Build(v, k, opts...)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := res.NewMapper(diskUnits); err != nil {
			return err
		}
		builds = append(builds, t1.Sub(t0).Seconds())
		mappers = append(mappers, time.Since(t1).Seconds())
	}
	l.set("pdl.build_s", median(builds), "s")
	l.set("pdl.mapper_s", median(mappers), "s")
	return nil
}

// unitMap returns the shard-local data units an op touches at the
// mapper: the slot itself, or the units of each piece of a span.
func (e *env) unitMap(o op, fn func(st *store.Store, logical int)) {
	if e.layers.pieces == nil {
		fn(e.stores[0], o.slot)
		return
	}
	for _, p := range e.layers.pieces[o.slot] {
		first := int(p.local / unitSize)
		for u := first; u < first+p.n/unitSize; u++ {
			fn(e.stores[p.shard], u)
		}
	}
}

// mapperRungs replays the op stream through Mapper.Map and through the
// degraded lookup with disk failed down, per data unit.
func (l *ladder) mapperRungs(share float64, failed int) error {
	per := float64(l.e.slotUnits)
	st, err := l.run(share/2, rung{layer: "pdl.map", fn: func(_ int, o op, _ []byte) error {
		var err error
		l.e.unitMap(o, func(s *store.Store, u int) {
			if _, e := s.Mapper().Map(u); e != nil {
				err = e
			}
		})
		return err
	}})
	if err != nil {
		return err
	}
	l.set("pdl.map_ns", st.meanAll()/per, "ns")
	scratch := make([][]layout.Unit, l.e.spec.workers)
	st, err = l.run(share/2, rung{layer: "pdl.degraded_map", fn: func(w int, o op, _ []byte) error {
		var err error
		l.e.unitMap(o, func(s *store.Store, u int) {
			var e error
			scratch[w], _, _, e = s.Mapper().AppendSurvivors(scratch[w][:0], u, failed)
			if e != nil {
				err = e
			}
		})
		return err
	}})
	if err != nil {
		return err
	}
	l.set("pdl.degraded_map_ns", st.meanAll()/per, "ns")
	return nil
}

// planRung replays the op stream through the planner with the
// workload's failed set, per data unit.
func (l *ladder) planRung(share float64, failed []int) error {
	type wp struct {
		planners map[*store.Store]*plan.Planner
		p        plan.Plan
	}
	ws := make([]wp, l.e.spec.workers)
	for w := range ws {
		ws[w].planners = map[*store.Store]*plan.Planner{}
		for _, s := range l.e.stores {
			ws[w].planners[s] = plan.NewPlanner(s.Mapper())
		}
	}
	st, err := l.run(share, rung{layer: "plan", fn: func(w int, o op, _ []byte) error {
		var err error
		l.e.unitMap(o, func(s *store.Store, u int) {
			pl := ws[w].planners[s]
			var e error
			if o.kind == opWrite {
				e = pl.WriteM(u, failed, &ws[w].p)
			} else {
				e = pl.ReadM(u, failed, &ws[w].p)
			}
			if e != nil {
				err = e
			}
		})
		return err
	}})
	if err != nil {
		return err
	}
	per := float64(l.e.slotUnits)
	l.set("plan.read_ns", st.mean(opRead)/per, "ns")
	l.set("plan.write_ns", st.mean(opWrite)/per, "ns")
	return nil
}

// planRebuild times compiling the rebuild schedule for target with the
// failed set down, and counts its allocations.
func (l *ladder) planRebuild(m pdl.Mapper, target int, failed []int) error {
	p := plan.NewPlanner(m)
	var times []float64
	var allocs uint64
	for i := 0; i < 5; i++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		if _, err := p.RebuildM(target, failed); err != nil {
			return err
		}
		times = append(times, float64(time.Since(t0).Nanoseconds()))
		runtime.ReadMemStats(&b)
		allocs = b.Mallocs - a.Mallocs
	}
	l.set("plan.rebuild_ns", median(times), "ns")
	l.set("plan.rebuild_allocs", float64(allocs), "count")
	return nil
}

// codeKernels measures the workload's erasure code on unit-sized
// buffers for a stripe of k data shards: full encode, small-write
// parity update, and reconstruction of one lost data shard with the
// shards in missing down. Rates count payload bytes in decimal MB.
func (l *ladder) codeKernels(c code.Code, k int, missing []int, share float64) error {
	m := c.ParityShards()
	shards := make([][]byte, k+m)
	r := newRNG(mix(l.seed, "code", 0))
	for i := range shards {
		shards[i] = make([]byte, unitSize)
		for j := range shards[i] {
			shards[i][j] = byte(r.next())
		}
	}
	data, parity := shards[:k], shards[k:]
	delta := make([]byte, unitSize)
	copy(delta, shards[0])
	coef := make([]byte, k+m)
	out := make([]byte, unitSize)
	d := time.Duration(float64(l.budget) * share / 3)
	rate := func(bytesPerIter int, fn func()) float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			for i := 0; i < 64; i++ {
				fn()
			}
			n += 64
		}
		return float64(n) * float64(bytesPerIter) / 1e6 / time.Since(t0).Seconds()
	}
	l.set("code.encode_mb_per_s", rate(k*unitSize, func() {
		for j := range parity {
			c.EncodeParity(j, data, parity[j])
		}
	}), "MB/s")
	l.set("code.update_mb_per_s", rate(unitSize, func() {
		for j := range parity {
			c.UpdateParity(j, 0, parity[j], delta)
		}
	}), "MB/s")
	var perr error
	l.set("code.reconstruct_mb_per_s", rate(unitSize, func() {
		if err := c.PlanReconstruct(k, missing, missing[0], coef); err != nil {
			perr = err
			return
		}
		clear(out)
		for s, cf := range coef {
			if cf != 0 {
				code.MulAdd(out, shards[s], cf)
			}
		}
	}), "MB/s")
	return perr
}

// storeCounters snapshots the summed per-disk counters of stores.
type diskTotals struct{ ios, bytes, degraded, readBytes int64 }

func storeTotals(stores []*store.Store) diskTotals {
	var t diskTotals
	for _, s := range stores {
		for _, d := range s.Stats().Disks {
			t.ios += d.Reads + d.Writes
			t.bytes += d.ReadBytes + d.WriteBytes
			t.readBytes += d.ReadBytes
			t.degraded += d.Degraded
		}
	}
	return t
}

// diskCounters sets the store's I/O amplification metrics from the
// counter delta over a rung of ops user operations.
func (l *ladder) diskCounters(before, after diskTotals, ops int64) {
	ios := after.ios - before.ios
	user := float64(ops) * float64(l.e.slotUnits*unitSize)
	l.set("store.disk_ios_per_op", float64(ios)/float64(max(ops, 1)), "count")
	l.set("store.disk_bytes_per_user_byte", float64(after.bytes-before.bytes)/math.Max(user, 1), "ratio")
	l.set("store.degraded_frac", float64(after.degraded-before.degraded)/float64(max(ios, 1)), "ratio")
}

// quietRebuild runs rebuild, which must reconstruct the lowest failed
// disk of st, with no foreground load, and sets the rebuild metrics: wall
// time, survivor read imbalance (max over mean, the paper's balance
// claim), and bytes read per byte rebuilt.
func (l *ladder) quietRebuild(st *store.Store, rebuild func() error) error {
	failed := st.FailedDisks()
	before := st.Stats().Disks
	t0 := time.Now()
	if err := rebuild(); err != nil {
		return fmt.Errorf("quiet rebuild: %w", err)
	}
	l.set("store.rebuild_disk_s", time.Since(t0).Seconds(), "s")
	after := st.Stats().Disks
	down := map[int]bool{}
	for _, d := range failed {
		down[d] = true
	}
	var sum, peak int64
	n := 0
	for d := range after {
		if down[d] {
			continue
		}
		r := after[d].ReadBytes - before[d].ReadBytes
		sum += r
		peak = max(peak, r)
		n++
	}
	mean := float64(sum) / float64(n)
	diskBytes := float64(st.Mapper().DiskUnits()) * float64(st.UnitSize())
	l.set("store.rebuild_read_imbalance", float64(peak)/mean, "ratio")
	l.set("store.rebuild_read_bytes_per_byte", float64(sum)/diskBytes, "ratio")
	fmt.Fprintf(l.out, "quiet rebuild of disk %d (down %v): %.4f s, survivor reads max %d B mean %.0f B\n",
		failed[0], failed, l.res.Metrics["store.rebuild_disk_s"].Value, peak, mean)
	return nil
}
