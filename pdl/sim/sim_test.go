package sim_test

import (
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/plan"
	"repro/pdl/sim"
)

func newArray(t *testing.T, cfg sim.Config) *sim.Array {
	t.Helper()
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.New(res.Layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestExecuteStageBarrier pins the engine's dependency semantics: stage 1
// steps start only after every stage 0 step finished, even on idle disks.
func TestExecuteStageBarrier(t *testing.T) {
	a := newArray(t, sim.Config{ServiceTime: 5})
	p := plan.Plan{Steps: []plan.Step{
		{Unit: layout.Unit{Disk: 0}, Stage: 0},
		{Unit: layout.Unit{Disk: 1}, Stage: 0},
		{Unit: layout.Unit{Disk: 2}, Write: true, Stage: 1},
	}}
	done := a.Execute(&p, 10)
	// Reads finish at 15; the write starts at 15 and finishes at 20.
	if done != 20 {
		t.Errorf("completion %d, want 20", done)
	}
	if a.Stats[2].Writes != 1 || a.Stats[0].Reads != 1 || a.Stats[1].Reads != 1 {
		t.Errorf("stats not charged per step: %+v", a.Stats)
	}
}

// TestExecuteQueuesPerDisk pins FIFO queueing: two same-stage steps on
// one disk serialize.
func TestExecuteQueuesPerDisk(t *testing.T) {
	a := newArray(t, sim.Config{ServiceTime: 3})
	p := plan.Plan{Steps: []plan.Step{
		{Unit: layout.Unit{Disk: 4}, Stage: 0},
		{Unit: layout.Unit{Disk: 4}, Stage: 0},
	}}
	if done := a.Execute(&p, 0); done != 6 {
		t.Errorf("two serialized reads complete at %d, want 6", done)
	}
}

// TestConvenienceMethodsMatchExplicitPlans drives the same operations
// through the convenience methods and through Planner+Execute on a twin
// array, expecting identical completion times and disk stats.
func TestConvenienceMethodsMatchExplicitPlans(t *testing.T) {
	auto := newArray(t, sim.Config{})
	manual := newArray(t, sim.Config{})
	if err := auto.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := manual.Fail(2); err != nil {
		t.Fatal(err)
	}
	var p plan.Plan
	var tick int64
	for logical := 0; logical < auto.DataUnits(); logical += 3 {
		wantRead, err := auto.ReadLogical(logical, tick)
		if err != nil {
			t.Fatal(err)
		}
		if err := manual.Planner().ReadM(logical, []int{manual.Failed}, &p); err != nil {
			t.Fatal(err)
		}
		if got := manual.Execute(&p, tick); got != wantRead {
			t.Fatalf("logical %d: explicit read plan completes at %d, ReadLogical at %d", logical, got, wantRead)
		}
		wantWrite, err := auto.WriteLogical(logical, tick)
		if err != nil {
			t.Fatal(err)
		}
		if err := manual.Planner().WriteM(logical, []int{manual.Failed}, &p); err != nil {
			t.Fatal(err)
		}
		if got := manual.Execute(&p, tick); got != wantWrite {
			t.Fatalf("logical %d: explicit write plan completes at %d, WriteLogical at %d", logical, got, wantWrite)
		}
		tick += 2
	}
	for d := range auto.Stats {
		if auto.Stats[d] != manual.Stats[d] {
			t.Fatalf("disk %d stats diverge: %+v vs %+v", d, auto.Stats[d], manual.Stats[d])
		}
	}
}

// TestRebuildOfflineMatchesPlanSchedule checks the simulator's rebuild
// read counts equal the compiled schedule's.
func TestRebuildOfflineMatchesPlanSchedule(t *testing.T) {
	a := newArray(t, sim.Config{Copies: 2})
	rb, err := a.Planner().RebuildM(1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RebuildOffline(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d, n := range res.PerDiskReads {
		if rb.Reads[d] != n {
			t.Errorf("disk %d: schedule %d reads, simulator %d", d, rb.Reads[d], n)
		}
		if a.Stats[d].Reads != n {
			t.Errorf("disk %d: stats %d reads, result %d", d, a.Stats[d].Reads, n)
		}
	}
	if res.MaxSurvivorReads != rb.MaxSurvivorReads() {
		t.Errorf("max survivor reads %d vs schedule %d", res.MaxSurvivorReads, rb.MaxSurvivorReads())
	}
}
