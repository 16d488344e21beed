package main

import (
	"cmp"
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/serve"
	"repro/pdl/store"
)

// Each traced workload walks its ladder from the top layer down. Shares
// split the --seconds budget between the rungs.

func serveKind(k opKind) serve.Kind {
	if k == opWrite {
		return serve.Write
	}
	return serve.Read
}

// storeRung replays the op stream as direct Store calls.
func storeRung(st *store.Store) rung {
	return rung{layer: "store", checked: true, fn: func(_ int, o op, buf []byte) error {
		if o.kind == opWrite {
			return st.Write(o.slot, buf)
		}
		return st.Read(o.slot, buf)
	}}
}

// frontendCounters sets the batching metrics from the Frontend counter
// delta over the top rung.
func (l *ladder) frontendCounters(before, after []serve.Stats) {
	var batches, batched, deadline int64
	for i := range before {
		batches += after[i].Batches - before[i].Batches
		batched += after[i].BatchedOps - before[i].BatchedOps
		deadline += after[i].FlushDeadline - before[i].FlushDeadline
	}
	l.set("serve.batch_mean", float64(batched)/float64(max(batches, 1)), "count")
	l.set("serve.flush_deadline_frac", float64(deadline)/float64(max(batches, 1)), "ratio")
}

// clusterCounters sets the leg and retry metrics from the cluster
// client's counter delta over spans ops.
func (l *ladder) clusterCounters(before, after []cluster.ShardStats, spans int64) {
	var legs, retries int64
	for i := range after {
		legs += after[i].Ops - before[i].Ops
		retries += after[i].Retries - before[i].Retries
	}
	l.set("cluster.legs_per_span", float64(legs)/float64(max(spans, 1)), "count")
	l.set("cluster.retries", float64(retries), "count")
}

func frontendStats(fronts []*serve.Frontend) []serve.Stats {
	s := make([]serve.Stats, len(fronts))
	for i, f := range fronts {
		s[i] = f.Stats()
	}
	return s
}

func traceServeUnit(l *ladder) error {
	e := l.e
	st := e.stores[0]
	front := e.layers.fronts[0]
	failed := newRNG(mix(l.seed, "failed", 0)).intn(e.layers.mapper.Disks())

	s0, f0 := storeTotals(e.stores), frontendStats(e.layers.fronts)
	top, ops, err := l.overhead(0.12, rung{layer: "serve.client", checked: true, fn: e.do})
	if err != nil {
		return err
	}
	l.diskCounters(s0, storeTotals(e.stores), ops)
	l.frontendCounters(f0, frontendStats(e.layers.fronts))
	l.set("serve.client_op_ns", top.meanAll(), "ns")

	// The cluster rung puts a one-shard cluster.Client with a shard-unit
	// of one array unit over the same server, so each op is one leg and
	// the cluster's self time is cluster.span_ns minus serve.client_op_ns.
	cc, err := cluster.Open(&cluster.Manifest{
		Version: cluster.FormatVersion, UnitBytes: unitSize, Policy: cluster.ByCapacity,
		Shards: []cluster.ShardInfo{{Addr: e.layers.addrs[0], Units: st.Size() / unitSize, State: cluster.ShardHealthy}},
	}, cluster.Options{Conns: 2})
	if err != nil {
		return err
	}
	e.onClose(cc.Close)
	sh0 := cc.Stats()
	cr, err := l.run(0.1, rung{layer: "cluster.span", checked: true, fn: func(_ int, o op, buf []byte) error {
		var err error
		if o.kind == opWrite {
			_, err = cc.WriteAt(buf, int64(o.slot)*unitSize)
		} else {
			_, err = cc.ReadAt(buf, int64(o.slot)*unitSize)
		}
		return err
	}})
	if err != nil {
		return err
	}
	l.clusterCounters(sh0, cc.Stats(), cr.ops())
	l.set("cluster.span_ns", cr.meanAll(), "ns")
	l.set("cluster.leg_ns", top.meanAll(), "ns")

	ctx := context.Background()
	fr, err := l.run(0.12, rung{layer: "serve.frontend", checked: true, fn: func(_ int, o op, buf []byte) error {
		return front.Do(ctx, serve.Op{Kind: serveKind(o.kind), Logical: o.slot, Buf: buf})
	}})
	if err != nil {
		return err
	}
	l.set("serve.frontend_op_ns", fr.meanAll(), "ns")

	sr, err := l.run(0.12, storeRung(st))
	if err != nil {
		return err
	}
	l.set("store.read_ns", sr.mean(opRead), "ns")
	l.set("store.write_ns", sr.mean(opWrite), "ns")

	if err := l.planRung(0.1, nil); err != nil {
		return err
	}
	if err := l.mapperRungs(0.1, failed); err != nil {
		return err
	}
	if err := l.codeKernels(st.Code(), 3, []int{0}, 0.15); err != nil {
		return err
	}
	if err := l.planRebuild(e.layers.mapper, failed, []int{failed}); err != nil {
		return err
	}
	if err := st.Fail(failed); err != nil {
		return err
	}
	if err := l.quietRebuild(st, func() error { return st.Rebuild(store.NewMemDisk(e.layers.diskSize)) }); err != nil {
		return err
	}
	return l.buildCosts(13, 4, e.layers.mapper.DiskUnits())
}

func traceRebuildRS2(l *ladder) error {
	e := l.e
	st := e.stores[0]
	a, b := failPair(newRNG(mix(l.seed, "failed", 0)), e.layers.mapper.Disks())
	failed := []int{a, b}
	sort.Ints(failed)

	if _, _, err := l.overhead(0.12, rung{layer: "store+rebuild", checked: true, background: true, fn: e.do}); err != nil {
		return err
	}

	// The store rung holds the workload's failed pair down throughout,
	// so its counters show the degraded foreground alone.
	for _, d := range failed {
		if err := st.Fail(d); err != nil {
			return err
		}
	}
	s0 := storeTotals(e.stores)
	sr, err := l.run(0.15, storeRung(st))
	if err != nil {
		return err
	}
	l.diskCounters(s0, storeTotals(e.stores), sr.ops())
	l.set("store.read_ns", sr.mean(opRead), "ns")
	l.set("store.write_ns", sr.mean(opWrite), "ns")

	if err := l.planRung(0.12, failed); err != nil {
		return err
	}
	if err := l.mapperRungs(0.12, failed[0]); err != nil {
		return err
	}
	if err := l.codeKernels(st.Code(), 4, []int{0, 1}, 0.15); err != nil {
		return err
	}
	if err := l.planRebuild(e.layers.mapper, failed[0], failed); err != nil {
		return err
	}
	rebuild := func() error { return st.Rebuild(store.NewMemDisk(e.layers.diskSize)) }
	if err := l.quietRebuild(st, rebuild); err != nil {
		return err
	}
	if err := rebuild(); err != nil {
		return err
	}
	return l.buildCosts(24, 6, e.layers.mapper.DiskUnits(), pdl.WithParityShards(2))
}

// spanPieces runs fn on every piece of a span in parallel, as the
// cluster client fans out, and returns the first error.
func spanPieces(ps []piece, fn func(i int, p piece) error) error {
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func traceClusterSpan(l *ladder) error {
	e := l.e
	cc := e.layers.cluster
	pieces := e.layers.pieces

	sh0, s0, f0 := cc.Stats(), storeTotals(e.stores), frontendStats(e.layers.fronts)
	top, ops, err := l.overhead(0.12, rung{layer: "cluster.span", checked: true, fn: e.do})
	if err != nil {
		return err
	}
	l.clusterCounters(sh0, cc.Stats(), ops)
	l.diskCounters(s0, storeTotals(e.stores), ops)
	l.frontendCounters(f0, frontendStats(e.layers.fronts))
	l.set("cluster.span_ns", top.meanAll(), "ns")

	// The legs rung sends each shard its part of a span as one contiguous
	// local range on a serve.Client per shard, gathered and scattered
	// through a staging buffer as the cluster client does, so cluster self
	// time is span_ns minus this rung's op time.
	shards := len(e.layers.addrs)
	clients := make([]*serve.Client, shards)
	for i, addr := range e.layers.addrs {
		c, err := serve.Dial(addr, serve.WithConns(1))
		if err != nil {
			return err
		}
		e.onClose(c.Close)
		clients[i] = c
	}
	staging := make([][][]byte, e.spec.workers)
	for w := range staging {
		staging[w] = make([][]byte, shards)
		for i := range staging[w] {
			staging[w][i] = make([]byte, spanBytes)
		}
	}
	legLayer := l.t.layer("cluster.leg")
	legNs := make([]struct{ sum, n int64 }, e.spec.workers)
	if _, err := l.run(0.12, rung{layer: "cluster.legs", checked: true, fn: func(w int, o op, buf []byte) error {
		legs := make([]piece, shards) // per shard: first local offset and total length
		for i := range legs {
			legs[i] = piece{shard: i, local: -1}
		}
		for _, p := range pieces[o.slot] {
			lg := &legs[p.shard]
			if lg.local < 0 {
				lg.local = p.local
			}
			if o.kind == opWrite {
				copy(staging[w][p.shard][lg.n:], buf[p.spanOff:p.spanOff+p.n])
			}
			lg.n += p.n
		}
		times := make([][2]time.Time, shards)
		err := spanPieces(legs, func(i int, lg piece) error {
			if lg.n == 0 {
				return nil
			}
			t0 := time.Now()
			b := staging[w][i][:lg.n]
			var err error
			if o.kind == opWrite {
				_, err = clients[i].WriteAt(b, lg.local)
			} else {
				_, err = clients[i].ReadAt(b, lg.local)
			}
			times[i] = [2]time.Time{t0, time.Now()}
			return err
		})
		if o.kind == opRead {
			at := make([]int, shards)
			for _, p := range pieces[o.slot] {
				copy(buf[p.spanOff:p.spanOff+p.n], staging[w][p.shard][at[p.shard]:])
				at[p.shard] += p.n
			}
		}
		for i, lg := range legs {
			if lg.n == 0 {
				continue
			}
			l.t.rec(w, legLayer, o.id, times[i][0], times[i][1])
			legNs[w].sum += times[i][1].Sub(times[i][0]).Nanoseconds()
			legNs[w].n++
		}
		return err
	}}); err != nil {
		return err
	}
	var legSum, legN int64
	for _, s := range legNs {
		legSum += s.sum
		legN += s.n
	}
	l.set("cluster.leg_ns", float64(legSum)/float64(max(legN, 1)), "ns")
	l.set("serve.client_op_ns", float64(legSum)/float64(max(legN, 1)), "ns")

	ctx := context.Background()
	fr, err := l.run(0.12, rung{layer: "serve.frontend", checked: true, fn: func(_ int, o op, buf []byte) error {
		var mu sync.Mutex
		var first error
		var wg sync.WaitGroup
		done := func(err error) {
			if err != nil {
				mu.Lock()
				first = cmp.Or(first, err)
				mu.Unlock()
			}
			wg.Done()
		}
		for _, p := range pieces[o.slot] {
			front := e.layers.fronts[p.shard]
			u0 := int(p.local / unitSize)
			for i := 0; i < p.n/unitSize; i++ {
				b := buf[p.spanOff+i*unitSize : p.spanOff+(i+1)*unitSize]
				wg.Add(1)
				if err := front.Go(ctx, serve.Op{Kind: serveKind(o.kind), Logical: u0 + i, Buf: b}, done); err != nil {
					done(err)
				}
			}
		}
		wg.Wait()
		return first
	}})
	if err != nil {
		return err
	}
	l.set("serve.frontend_op_ns", fr.meanAll(), "ns")

	sr, err := l.run(0.12, rung{layer: "store", checked: true, fn: func(_ int, o op, buf []byte) error {
		return spanPieces(pieces[o.slot], func(_ int, p piece) error {
			st := e.stores[p.shard]
			b := buf[p.spanOff : p.spanOff+p.n]
			var err error
			if o.kind == opWrite {
				_, err = st.WriteAt(b, p.local)
			} else {
				_, err = st.ReadAt(b, p.local)
			}
			return err
		})
	}})
	if err != nil {
		return err
	}
	l.set("store.read_ns", sr.mean(opRead), "ns")
	l.set("store.write_ns", sr.mean(opWrite), "ns")

	r := newRNG(mix(l.seed, "failed", 0))
	failed := r.intn(e.layers.mapper.Disks())
	if err := l.planRung(0.08, nil); err != nil {
		return err
	}
	if err := l.mapperRungs(0.08, failed); err != nil {
		return err
	}
	if err := l.codeKernels(e.stores[0].Code(), 3, []int{0}, 0.09); err != nil {
		return err
	}
	if err := l.planRebuild(e.layers.mapper, failed, []int{failed}); err != nil {
		return err
	}
	a := e.layers.arrays[0]
	if err := a.Fail(failed); err != nil {
		return err
	}
	if err := l.quietRebuild(e.stores[0], func() error { _, err := a.Rebuild(); return err }); err != nil {
		return err
	}
	return l.buildCosts(13, 4, e.layers.mapper.DiskUnits())
}
