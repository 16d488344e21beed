// Package sim is the event-driven disk-array simulator the paper's
// evaluation runs on: offline and online rebuild, client workloads
// (healthy or degraded), latency statistics, and deterministic workload
// generators, all driven by a pdl/layout.Layout.
//
// The simulator is an execution engine for pdl/plan: every client
// operation is compiled into a physical I/O plan by a plan.Planner and
// executed against the timing model, so the request logic (degraded
// fan-out, read-modify-write ordering, rebuild schedules) lives in the
// reusable plan layer rather than in the simulator.
//
// The time model is timestamp propagation: a request issued at time t to
// disk d starts at max(t, d.busyUntil) and occupies the disk for
// ServiceTime ticks. Plan stages propagate completion times (a small
// write's parity write waits for its two reads). This is a deterministic,
// work-conserving approximation of a FIFO disk queue — sufficient for the
// relative comparisons the paper makes (who wins and by what factor), not
// for absolute latency calibration.
package sim

import (
	"fmt"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/plan"
)

// Config parametrizes the array model.
type Config struct {
	// ServiceTime is ticks per unit read or write. Default 1.
	ServiceTime int64
	// Seek, when non-nil, adds a positioning cost on top of ServiceTime:
	// Base + PerUnit * |offset - head| ticks, with the head left at the
	// request's offset. This is the seek-aware ablation model; nil keeps
	// the constant-service model.
	Seek *SeekParams
	// Copies tiles the layout vertically: each disk holds Copies * Size
	// units (the paper's multiple-copies-for-larger-disks deployment).
	// Default 1.
	Copies int
}

// SeekParams describes the optional seek-distance cost model.
type SeekParams struct {
	Base    int64
	PerUnit float64
}

// DiskStats accumulates per-disk counters.
type DiskStats struct {
	Reads, Writes int64
	BusyTime      int64
}

// Array simulates a disk array under a layout. It executes pdl/plan
// plans; the convenience methods (ReadLogical, WriteLogical, ...) compile
// and execute in one call.
type Array struct {
	L       *layout.Layout
	Mapping *layout.Mapping
	// Mapper is the address translator plans are compiled against
	// (geometry Copies * layout size).
	Mapper pdl.Mapper
	cfg    Config
	pln    *plan.Planner
	// scratch is the reusable per-operation plan.
	scratch plan.Plan
	// busyUntil per disk.
	busyUntil []int64
	// head tracks each disk's last serviced offset (seek model).
	head  []int
	Stats []DiskStats
	// Failed marks a failed disk (-1 = healthy array).
	Failed int
	// fbuf backs the one-disk failed set plans compile against.
	fbuf [1]int
}

// New builds a simulator for a layout with assigned parity.
func New(l *layout.Layout, cfg Config) (*Array, error) {
	m, err := layout.NewMapping(l)
	if err != nil {
		return nil, err
	}
	if cfg.ServiceTime <= 0 {
		cfg.ServiceTime = 1
	}
	if cfg.Copies <= 0 {
		cfg.Copies = 1
	}
	mapper, err := pdl.NewMapperFromMapping(m, l.Size*cfg.Copies)
	if err != nil {
		return nil, err
	}
	return &Array{
		L:         l,
		Mapping:   m,
		Mapper:    mapper,
		cfg:       cfg,
		pln:       plan.NewPlanner(mapper),
		busyUntil: make([]int64, l.V),
		head:      make([]int, l.V),
		Stats:     make([]DiskStats, l.V),
		Failed:    -1,
	}, nil
}

// Planner returns the plan compiler the array executes. It shares the
// array's Mapper; use it to inspect the plans behind the convenience
// methods (e.g. for tracing).
func (a *Array) Planner() *plan.Planner { return a.pln }

// Reset clears disk state and statistics.
func (a *Array) Reset() {
	for i := range a.busyUntil {
		a.busyUntil[i] = 0
		a.head[i] = 0
		a.Stats[i] = DiskStats{}
	}
	a.Failed = -1
}

// Fail marks a disk as failed; subsequent reads of its units go degraded.
func (a *Array) Fail(disk int) error {
	if disk < 0 || disk >= a.L.V {
		return fmt.Errorf("sim: Fail(%d): disk out of range", disk)
	}
	a.Failed = disk
	return nil
}

// failedSet returns Failed as the failed-disk set the planner takes (nil
// when healthy).
func (a *Array) failedSet() []int {
	if a.Failed < 0 {
		return nil
	}
	a.fbuf[0] = a.Failed
	return a.fbuf[:1]
}

// Issue schedules one unit operation at a specific offset of a disk at
// earliest time t and returns its completion time, applying the seek
// model when configured. It is the engine's scheduling primitive; plans
// are sequences of Issue calls with stage barriers.
func (a *Array) Issue(disk, offset int, t int64, write bool) int64 {
	start := t
	if a.busyUntil[disk] > start {
		start = a.busyUntil[disk]
	}
	service := a.cfg.ServiceTime
	if a.cfg.Seek != nil {
		dist := offset - a.head[disk]
		if dist < 0 {
			dist = -dist
		}
		service += a.cfg.Seek.Base + int64(a.cfg.Seek.PerUnit*float64(dist))
		a.head[disk] = offset
	}
	finish := start + service
	a.busyUntil[disk] = finish
	if write {
		a.Stats[disk].Writes++
	} else {
		a.Stats[disk].Reads++
	}
	a.Stats[disk].BusyTime += service
	return finish
}

// Execute runs a compiled plan starting at time t and returns its
// completion time. Steps within a stage are issued concurrently (subject
// to per-disk queueing); each stage starts when the previous stage's last
// step finished.
func (a *Array) Execute(p *plan.Plan, t int64) int64 {
	stageStart := t
	stageEnd := t
	var cur uint8
	for i := range p.Steps {
		s := &p.Steps[i]
		if s.Stage != cur {
			cur = s.Stage
			stageStart = stageEnd
		}
		if f := a.Issue(s.Disk, s.Offset, stageStart, s.Write); f > stageEnd {
			stageEnd = f
		}
	}
	return stageEnd
}

// DiskUnits returns the simulated per-disk capacity in units.
func (a *Array) DiskUnits() int { return a.L.Size * a.cfg.Copies }

// DataUnits returns the logical data capacity across all copies.
func (a *Array) DataUnits() int { return a.Mapping.DataUnits() * a.cfg.Copies }

// ReadLogical simulates a client read arriving at time t and returns its
// completion time. Healthy path: one unit read. Degraded path (unit on the
// failed disk): read every surviving unit of the stripe (XOR
// reconstruction on the fly).
func (a *Array) ReadLogical(logical int, t int64) (int64, error) {
	if err := a.pln.ReadM(logical, a.failedSet(), &a.scratch); err != nil {
		return 0, err
	}
	return a.Execute(&a.scratch, t), nil
}

// WriteLogical simulates a client small write arriving at time t: read old
// data and old parity, then write new data and new parity (the Figure 1
// read-modify-write). Degraded variants:
//   - data disk failed: reconstruct-write — read surviving data units of
//     the stripe, then write parity only;
//   - parity disk failed: write data only.
//
// Returns the completion time.
func (a *Array) WriteLogical(logical int, t int64) (int64, error) {
	if err := a.pln.WriteM(logical, a.failedSet(), &a.scratch); err != nil {
		return 0, err
	}
	return a.Execute(&a.scratch, t), nil
}

// WriteFullStripe simulates a large write covering every data unit of the
// stripe holding `logical` (the Condition 5 "Large Write Optimization"):
// parity is computed from the new data alone, so the stripe's k units are
// written with NO pre-reads — k writes vs 4 ops per unit for small
// writes. Returns the completion time.
func (a *Array) WriteFullStripe(logical int, t int64) (int64, error) {
	if err := a.pln.FullStripeWriteM(logical, a.failedSet(), &a.scratch); err != nil {
		return 0, err
	}
	return a.Execute(&a.scratch, t), nil
}

// RebuildResult reports an offline reconstruction.
type RebuildResult struct {
	Failed       int
	PerDiskReads []int64
	// MaxSurvivorReads is the bottleneck read count (determines rebuild
	// time when disks run in parallel).
	MaxSurvivorReads int64
	// SurvivorFraction is the bottleneck fraction of a surviving disk read.
	SurvivorFraction float64
	// Makespan is the simulated completion time.
	Makespan int64
}

// RebuildOffline simulates reconstructing a failed disk with no competing
// traffic: every stripe crossing the failed disk reads all its surviving
// units (writes to the replacement disk are not modeled — the paper's
// metric is survivor read load).
func (a *Array) RebuildOffline(failed int, start int64) (RebuildResult, error) {
	rb, err := a.pln.RebuildM(failed, []int{failed})
	if err != nil {
		return RebuildResult{}, fmt.Errorf("sim: RebuildOffline: %w", err)
	}
	res := RebuildResult{Failed: failed, PerDiskReads: rb.Reads}
	var makespan int64
	for i := range rb.Plans {
		if f := a.Execute(&rb.Plans[i], start); f > makespan {
			makespan = f
		}
	}
	res.MaxSurvivorReads = rb.MaxSurvivorReads()
	res.SurvivorFraction = float64(res.MaxSurvivorReads) / float64(a.DiskUnits())
	res.Makespan = makespan - start
	return res, nil
}

// WorkloadResult reports a served client workload.
type WorkloadResult struct {
	Ops          int
	TotalLatency int64
	MaxLatency   int64
	// Completion is the time the last operation finished.
	Completion int64
	// PerDiskBusy is each disk's total busy time.
	PerDiskBusy []int64
	// Latencies holds every operation latency for percentile reporting.
	Latencies *LatencyRecorder
}

// AvgLatency returns mean operation latency in ticks.
func (r WorkloadResult) AvgLatency() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Ops)
}

// serveOne compiles and executes one client operation at time t.
func (a *Array) serveOne(op Op, t int64) (int64, error) {
	switch op.Kind {
	case Read:
		return a.ReadLogical(op.Logical, t)
	case Write:
		return a.WriteLogical(op.Logical, t)
	}
	return t, nil
}

// ServeWorkload issues n operations from gen, one every interArrival
// ticks, and reports latency statistics. Run Fail beforehand to measure
// degraded mode.
func (a *Array) ServeWorkload(gen Generator, n int, interArrival int64) (WorkloadResult, error) {
	res := WorkloadResult{Ops: n, PerDiskBusy: make([]int64, a.L.V), Latencies: &LatencyRecorder{}}
	var t int64
	for i := 0; i < n; i++ {
		done, err := a.serveOne(gen.Next(), t)
		if err != nil {
			return res, err
		}
		lat := done - t
		res.Latencies.Record(lat)
		res.TotalLatency += lat
		if lat > res.MaxLatency {
			res.MaxLatency = lat
		}
		if done > res.Completion {
			res.Completion = done
		}
		t += interArrival
	}
	for d := range res.PerDiskBusy {
		res.PerDiskBusy[d] = a.Stats[d].BusyTime
	}
	return res, nil
}

// RebuildOnline simulates reconstruction competing with a client workload:
// client ops arrive every interArrival ticks while rebuild reads for the
// failed disk are issued in the gaps (one stripe per client op, round
// robin), modeling a rebuild throttled to client activity. Returns the
// client result and the rebuild result.
func (a *Array) RebuildOnline(gen Generator, nOps int, interArrival int64, failed int) (WorkloadResult, RebuildResult, error) {
	if err := a.Fail(failed); err != nil {
		return WorkloadResult{}, RebuildResult{}, err
	}
	rb, err := a.pln.RebuildM(failed, []int{failed})
	if err != nil {
		return WorkloadResult{}, RebuildResult{}, fmt.Errorf("sim: RebuildOnline: %w", err)
	}
	cres := WorkloadResult{Ops: nOps, PerDiskBusy: make([]int64, a.L.V), Latencies: &LatencyRecorder{}}
	rres := RebuildResult{Failed: failed, PerDiskReads: rb.Reads}
	var t int64
	nextStripe := 0
	var rebuildDone int64
	for i := 0; i < nOps; i++ {
		done, err := a.serveOne(gen.Next(), t)
		if err != nil {
			return cres, rres, err
		}
		lat := done - t
		cres.Latencies.Record(lat)
		cres.TotalLatency += lat
		if lat > cres.MaxLatency {
			cres.MaxLatency = lat
		}
		if done > cres.Completion {
			cres.Completion = done
		}
		// Issue one rebuild stripe in the gap.
		if nextStripe < len(rb.Plans) {
			if f := a.Execute(&rb.Plans[nextStripe], t); f > rebuildDone {
				rebuildDone = f
			}
			nextStripe++
		}
		t += interArrival
	}
	// Drain remaining rebuild stripes.
	for ; nextStripe < len(rb.Plans); nextStripe++ {
		if f := a.Execute(&rb.Plans[nextStripe], t); f > rebuildDone {
			rebuildDone = f
		}
	}
	rres.MaxSurvivorReads = rb.MaxSurvivorReads()
	rres.SurvivorFraction = float64(rres.MaxSurvivorReads) / float64(a.DiskUnits())
	rres.Makespan = rebuildDone
	for d := range cres.PerDiskBusy {
		cres.PerDiskBusy[d] = a.Stats[d].BusyTime
	}
	return cres, rres, nil
}

// ParityContention serves a pure small-write workload and returns the
// maximum and mean per-disk write counts — the Condition 2 bottleneck
// measure: disks holding more parity absorb more parity-update writes.
func (a *Array) ParityContention(gen Generator, n int) (maxWrites int64, meanWrites float64, err error) {
	if _, err := a.ServeWorkload(gen, n, 1); err != nil {
		return 0, 0, err
	}
	var total int64
	for d := range a.Stats {
		w := a.Stats[d].Writes
		total += w
		if w > maxWrites {
			maxWrites = w
		}
	}
	return maxWrites, float64(total) / float64(a.L.V), nil
}
