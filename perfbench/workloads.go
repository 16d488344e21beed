package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/pdl"
	"repro/pdl/cluster"
	"repro/pdl/code"
	"repro/pdl/serve"
	"repro/pdl/store"
	"repro/pdl/store/array"
)

const (
	unitSize      = 4096
	spanBytes     = 256 << 10
	shardUnitSize = 64 << 10
)

var serveUnit = &workload{
	name: "serve-unit",
	geometry: "array=v13,k4,ring,xor,unit4KiB,copies1,MemDisk(2.6MB) serve=default-config " +
		"load=closed,2goroutines,1client,2conns,zipf0.9,writes30%",
	setups: 61,
	setup:  setupServeUnit,
	trace:  traceServeUnit,
}

var rebuildRS2 = &workload{
	name: "rebuild-rs2",
	geometry: "array=v24,k6,m2,stairway(q=23),rs,unit4KiB,copies2,MemDisk(597MB) " +
		"load=closed,1goroutine,zipf0.9,writes30% rebuild=back-to-back,fail2,Rebuild×2",
	setups: 3,
	setup:  setupRebuildRS2,
	trace:  traceRebuildRS2,
}

var clusterSpan = &workload{
	name: "cluster-span",
	geometry: "shards=2×(v13,k4,ring,xor,unit4KiB,copies32,FileDisk,page-cache-no-fsync) shard_unit=64KiB " +
		"load=closed,2goroutines,1conn/shard,span256KiB,uniform,writes50%",
	setups: 5,
	setup:  setupClusterSpan,
	trace:  traceClusterSpan,
}

// layers holds the handles below a workload's top layer, for the traced
// replay and the quiet rebuild measurements.
type layers struct {
	mapper   pdl.Mapper
	diskSize int64
	fronts   []*serve.Frontend
	cluster  *cluster.Client
	arrays   []*array.Array
	addrs    []string
	pieces   [][]piece // cluster-span: per slot, the span's shard-unit pieces
}

// piece is a cluster span's overlap with one shard-unit.
type piece struct {
	shard   int
	local   int64 // byte offset in the shard's store
	spanOff int
	n       int
}

func memDisks(n int, size int64) []store.Backend {
	disks := make([]store.Backend, n)
	for i := range disks {
		disks[i] = store.NewMemDisk(size)
	}
	return disks
}

// prefill writes version 0 of every unit through w.
func prefill(w io.WriterAt, m *model) error {
	const chunk = 256
	buf := make([]byte, chunk*m.unit)
	for u := 0; u < len(m.ver); u += chunk {
		n := min(chunk, len(m.ver)-u)
		if _, err := w.WriteAt(m.prefillImage(buf, u, n), int64(u)*int64(m.unit)); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// startServer serves front on a loopback port until the env closes.
func startServer(e *env, front *serve.Frontend, configure func(*serve.Server)) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := serve.NewServer(front)
	if configure != nil {
		configure(srv)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once Close stops the listener
	}()
	e.onClose(func() error {
		err := srv.Close()
		<-done
		return err
	})
	return ln.Addr().String(), nil
}

func setupServeUnit(seed uint64, _ string) (e *env, err error) {
	e = &env{slotUnits: 1}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	res, err := pdl.Build(13, 4)
	if err != nil {
		return nil, err
	}
	m, err := res.NewMapper(res.Layout.Size)
	if err != nil {
		return nil, err
	}
	diskSize := int64(m.DiskUnits()) * unitSize
	st, err := store.New(m, unitSize, memDisks(m.Disks(), diskSize))
	if err != nil {
		return nil, err
	}
	e.onClose(st.Close)
	e.stores = []*store.Store{st}
	e.model = newModel(seed, m.DataUnits(), unitSize)
	e.spec = genSpec{slots: m.DataUnits(), workers: 2, writeFrac: 0.3, theta: 0.9}
	if err := prefill(st, e.model); err != nil {
		return nil, err
	}
	front := serve.New(st, serve.Config{})
	e.onClose(front.Close)
	addr, err := startServer(e, front, nil)
	if err != nil {
		return nil, err
	}
	c, err := serve.Dial(addr, serve.WithConns(2))
	if err != nil {
		return nil, err
	}
	e.onClose(c.Close)
	e.layers = layers{mapper: m, diskSize: diskSize, fronts: []*serve.Frontend{front}, addrs: []string{addr}}
	e.do = func(_ int, o op, buf []byte) error {
		if o.kind == opWrite {
			return c.Write(o.slot, buf)
		}
		return c.Read(o.slot, buf)
	}
	e.read = c.Read
	// A cycle is about 0.2 ms, mostly a loopback round trip, so host
	// noise over the phase moves its median; in quiet sets a 12 s phase
	// halved the spread across seeds that a 2 s one showed.
	e.rebuildFor = 12 * time.Second
	e.rebuild = func(r *rng) (time.Duration, error) {
		if err := c.Fail(r.intn(m.Disks())); err != nil {
			return 0, err
		}
		t0 := time.Now()
		err := c.Rebuild()
		return time.Since(t0), err
	}
	return e, nil
}

func setupRebuildRS2(seed uint64, _ string) (e *env, err error) {
	e = &env{slotUnits: 1}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	res, err := pdl.Build(24, 6, pdl.WithParityShards(2))
	if err != nil {
		return nil, err
	}
	m, err := res.NewMapper(2 * res.Layout.Size)
	if err != nil {
		return nil, err
	}
	rs, err := code.New("rs", 2)
	if err != nil {
		return nil, err
	}
	diskSize := int64(m.DiskUnits()) * unitSize
	st, err := store.NewCode(m, unitSize, memDisks(m.Disks(), diskSize), rs)
	if err != nil {
		return nil, err
	}
	e.onClose(st.Close)
	e.stores = []*store.Store{st}
	e.layers = layers{mapper: m, diskSize: diskSize}
	e.model = newModel(seed, m.DataUnits(), unitSize)
	e.spec = genSpec{slots: m.DataUnits(), workers: 1, writeFrac: 0.3, theta: 0.9}
	if err := prefill(st, e.model); err != nil {
		return nil, err
	}
	e.do = func(_ int, o op, buf []byte) error {
		if o.kind == opWrite {
			return st.Write(o.slot, buf)
		}
		return st.Read(o.slot, buf)
	}
	e.read = st.Read
	e.background = func(stop <-chan struct{}) ([]cycle, error) {
		return rebuildLoop(st, newRNG(mix(seed, "rebuild", 0)), diskSize, stop)
	}
	return e, nil
}

// failPair picks two distinct disks of n.
func failPair(r *rng, n int) (int, int) {
	a := r.intn(n)
	b := r.intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// rebuildLoop runs back-to-back cycles until stop closes: fail two
// seeded disks, then rebuild both. Each replaced backend becomes the
// spare for the next rebuild, so the loop allocates one spare in all.
func rebuildLoop(st *store.Store, r *rng, diskSize int64, stop <-chan struct{}) ([]cycle, error) {
	spare := store.Backend(store.NewMemDisk(diskSize))
	var cycles []cycle
	for {
		select {
		case <-stop:
			return cycles, nil
		default:
		}
		a, b := failPair(r, st.Mapper().Disks())
		if err := st.Fail(a); err != nil {
			return cycles, err
		}
		if err := st.Fail(b); err != nil {
			return cycles, err
		}
		t0 := time.Now()
		for i := 0; i < 2; i++ {
			old := st.DiskBackend(st.Failed())
			if err := st.Rebuild(spare); err != nil {
				return cycles, err
			}
			spare = old
		}
		cycles = append(cycles, cycle{time.Now(), time.Since(t0)})
	}
}

func setupClusterSpan(seed uint64, workdir string) (e *env, err error) {
	e = &env{slotUnits: spanBytes / unitSize}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	dir, err := os.MkdirTemp(workdir, "cluster-span-")
	if err != nil {
		return nil, err
	}
	e.onClose(func() error { return os.RemoveAll(dir) })
	man := &cluster.Manifest{Version: cluster.FormatVersion, UnitBytes: shardUnitSize, Policy: cluster.ByCapacity}
	for i := 0; i < 2; i++ {
		a, err := array.Create(filepath.Join(dir, fmt.Sprintf("shard%d", i)), array.CreateOptions{
			V: 13, K: 4, Copies: 32, UnitSize: unitSize, Backend: array.File,
		})
		if err != nil {
			return nil, err
		}
		e.onClose(a.Close)
		e.layers.arrays = append(e.layers.arrays, a)
		st := a.Store()
		e.stores = append(e.stores, st)
		front := serve.New(st, serve.Config{})
		e.onClose(front.Close)
		addr, err := startServer(e, front, func(srv *serve.Server) {
			srv.FailDisk = a.Fail
			srv.RebuildDisk = func() error { _, err := a.Rebuild(); return err }
		})
		if err != nil {
			return nil, err
		}
		e.layers.fronts = append(e.layers.fronts, front)
		e.layers.addrs = append(e.layers.addrs, addr)
		man.Shards = append(man.Shards, cluster.ShardInfo{Addr: addr, Units: st.Size() / shardUnitSize, State: cluster.ShardHealthy})
	}
	cc, err := cluster.Open(man, cluster.Options{Conns: 1})
	if err != nil {
		return nil, err
	}
	e.onClose(cc.Close)
	e.layers.cluster = cc
	e.layers.mapper = e.stores[0].Mapper()
	slots := int(cc.Size() / spanBytes)
	e.model = newModel(seed, slots*e.slotUnits, unitSize)
	e.spec = genSpec{slots: slots, workers: 2, writeFrac: 0.5}
	if err := prefill(cc, e.model); err != nil {
		return nil, err
	}
	cmap := cc.Map()
	e.layers.pieces = make([][]piece, slots)
	for s := range e.layers.pieces {
		base := int64(s) * spanBytes
		cmap.LocateRange(base, spanBytes, func(shard int, local, off int64, n int) {
			e.layers.pieces[s] = append(e.layers.pieces[s], piece{shard: shard, local: local, spanOff: int(off - base), n: n})
		})
	}
	e.do = func(_ int, o op, buf []byte) error {
		if o.kind == opWrite {
			_, err := cc.WriteAt(buf, int64(o.slot)*spanBytes)
			return err
		}
		_, err := cc.ReadAt(buf, int64(o.slot)*spanBytes)
		return err
	}
	e.read = func(slot int, buf []byte) error {
		_, err := cc.ReadAt(buf, int64(slot)*spanBytes)
		return err
	}
	var admins []*serve.Client
	// A cycle takes about 20 ms, rewriting a 6.3 MB disk file through the
	// page cache. In 2 s the quiet sub-windows of a noisy run kept only
	// 15-30 cycles; 6 s keeps 50-225 and writes about 1.6 GB a run.
	e.rebuildFor = 6 * time.Second
	e.rebuild = func(r *rng) (time.Duration, error) {
		if admins == nil {
			for _, addr := range e.layers.addrs {
				c, err := serve.DialContext(context.Background(), addr, serve.WithConns(1))
				if err != nil {
					return 0, err
				}
				e.onClose(c.Close)
				admins = append(admins, c)
			}
		}
		c := admins[r.intn(len(admins))]
		if err := c.Fail(r.intn(c.Disks())); err != nil {
			return 0, err
		}
		t0 := time.Now()
		err := c.Rebuild()
		return time.Since(t0), err
	}
	return e, nil
}
