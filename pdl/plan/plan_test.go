package plan_test

import (
	"bytes"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/plan"
)

// TestDegradedReadMatchesMapperAcrossMethods is the cross-layer property
// check: for every registered construction method across a (v, k) grid,
// the XOR set a DegradedRead plan reads must equal the survivor set
// Mapper.DegradedMap reports, and XOR-ing those units' bytes must
// reconstruct the lost unit's payload exactly.
func TestDegradedReadMatchesMapperAcrossMethods(t *testing.T) {
	vs := []int{5, 7, 8, 9, 13, 16}
	ks := []int{2, 3, 4}
	built := 0
	for _, method := range pdl.Methods() {
		for _, v := range vs {
			for _, k := range ks {
				if k > v {
					continue
				}
				res, err := pdl.Build(v, k, pdl.WithMethod(method))
				if err != nil {
					// Not every method realizes every (v, k); the grid
					// covers what the registry can build.
					continue
				}
				l := res.Layout
				if !l.ParityAssigned() || l.Size == 0 {
					continue
				}
				built++
				t.Run(res.Method, func(t *testing.T) {
					checkDegradedReads(t, l)
				})
			}
		}
	}
	if built < 10 {
		t.Fatalf("grid built only %d layouts; registry coverage regressed", built)
	}
}

// checkDegradedReads verifies, for a sample of logical addresses of a
// layout, that the DegradedRead plan equals the Mapper's survivor set and
// reconstructs correct bytes via the layout's XOR data engine.
func checkDegradedReads(t *testing.T, l *layout.Layout) {
	t.Helper()
	const unitSize = 8
	m, err := pdl.NewMapper(l, l.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	data, err := layout.NewData(l, unitSize)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct payload per logical unit so XOR mistakes cannot cancel.
	for i := 0; i < m.DataUnits(); i++ {
		payload := make([]byte, unitSize)
		for j := range payload {
			payload[j] = byte(i*31 + j*7 + 1)
		}
		if err := data.WriteLogical(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	stride := m.DataUnits()/40 + 1
	var p plan.Plan
	for logical := 0; logical < m.DataUnits(); logical += stride {
		home, err := m.Map(logical)
		if err != nil {
			t.Fatal(err)
		}
		failed := home.Disk
		if err := pln.ReadM(logical, []int{failed}, &p); err != nil {
			t.Fatal(err)
		}
		if p.Kind != plan.DegradedRead {
			t.Fatalf("logical %d: plan kind %v, want DegradedRead", logical, p.Kind)
		}
		dr, err := m.DegradedMap(logical, failed)
		if err != nil {
			t.Fatal(err)
		}
		if !dr.Degraded {
			t.Fatalf("logical %d: DegradedMap not degraded for home disk %d", logical, failed)
		}
		if len(p.Steps) != len(dr.Survivors) {
			t.Fatalf("logical %d: plan reads %d units, DegradedMap reports %d survivors",
				logical, len(p.Steps), len(dr.Survivors))
		}
		want := make([]byte, unitSize)
		for i, s := range p.Steps {
			if s.Write || s.Stage != 0 {
				t.Fatalf("logical %d: degraded read has non-read or staged step %+v", logical, s)
			}
			if s.Unit != dr.Survivors[i] {
				t.Fatalf("logical %d: plan step %d reads %v, survivor is %v",
					logical, i, s.Unit, dr.Survivors[i])
			}
			if s.Disk == failed {
				t.Fatalf("logical %d: plan reads the failed disk %d", logical, failed)
			}
			unit := data.DiskContents(s.Disk)[s.Offset*unitSize : (s.Offset+1)*unitSize]
			for j := range want {
				want[j] ^= unit[j]
			}
		}
		direct, err := data.ReadLogical(logical)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, direct) {
			t.Fatalf("logical %d: XOR of plan's survivor set %x != stored payload %x",
				logical, want, direct)
		}
		// A non-home failure must compile to a plain one-unit read.
		other := (failed + 1) % l.V
		if err := pln.ReadM(logical, []int{other}, &p); err != nil {
			t.Fatal(err)
		}
		if p.Kind != plan.Read || len(p.Steps) != 1 || p.Steps[0].Unit != home {
			t.Fatalf("logical %d: healthy-path plan %v reads %v, want single read of %v",
				logical, p.Kind, p.Steps, home)
		}
	}
}

// TestDegradedReadMatchesMapperWithCopies repeats the survivor-set
// equality on a multi-copy geometry (disk = 3 layout copies), where
// offsets must be copy-adjusted.
func TestDegradedReadMatchesMapperWithCopies(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Layout
	m, err := pdl.NewMapper(l, 3*l.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	var p plan.Plan
	for logical := 0; logical < m.DataUnits(); logical += 7 {
		home, err := m.Map(logical)
		if err != nil {
			t.Fatal(err)
		}
		if err := pln.ReadM(logical, []int{home.Disk}, &p); err != nil {
			t.Fatal(err)
		}
		dr, err := m.DegradedMap(logical, home.Disk)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Steps) != len(dr.Survivors) {
			t.Fatalf("logical %d: %d steps vs %d survivors", logical, len(p.Steps), len(dr.Survivors))
		}
		for i, s := range p.Steps {
			if s.Unit != dr.Survivors[i] {
				t.Fatalf("logical %d: step %d %v != survivor %v", logical, i, s.Unit, dr.Survivors[i])
			}
			if s.Offset < 0 || s.Offset >= m.DiskUnits() {
				t.Fatalf("logical %d: offset %d outside disk", logical, s.Offset)
			}
		}
	}
}

// TestSmallWritePlanShape pins the Figure 1 read-modify-write structure:
// two reads in stage 0, two writes in stage 1, on the data and parity
// units.
func TestSmallWritePlanShape(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	var p plan.Plan
	if err := pln.WriteM(0, nil, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.SmallWrite || p.Reads() != 2 || p.Writes() != 2 || p.Stages() != 2 {
		t.Fatalf("small write plan: kind %v reads %d writes %d stages %d", p.Kind, p.Reads(), p.Writes(), p.Stages())
	}
	stripe, home, err := m.StripeOf(0)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := m.ParityOf(stripe)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].Unit != home || p.Steps[1].Unit != parity {
		t.Errorf("stage 0 reads %v,%v, want home %v parity %v", p.Steps[0].Unit, p.Steps[1].Unit, home, parity)
	}
	if p.Steps[2].Unit != home || !p.Steps[2].Write || p.Steps[3].Unit != parity || !p.Steps[3].Write {
		t.Errorf("stage 1 not writes of home+parity: %+v", p.Steps[2:])
	}
	// Byte-executor metadata: the stripe index and the parity marks.
	if p.Stripe != stripe {
		t.Errorf("plan stripe %d, want %d", p.Stripe, stripe)
	}
	for i, s := range p.Steps {
		if s.Parity != (s.Unit == parity) {
			t.Errorf("step %d parity mark %v for unit %v (parity is %v)", i, s.Parity, s.Unit, parity)
		}
	}
}

// TestWriteDegradedVariants pins the two degraded small-write shapes:
// data disk down => ReconstructWrite (reads then a parity write); parity
// disk down => DataOnlyWrite (single data write).
func TestWriteDegradedVariants(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	stripe, home, err := m.StripeOf(0)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := m.ParityOf(stripe)
	if err != nil {
		t.Fatal(err)
	}

	var p plan.Plan
	if err := pln.WriteM(0, []int{home.Disk}, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.ReconstructWrite {
		t.Fatalf("data-disk failure: kind %v", p.Kind)
	}
	if p.Writes() != 1 || p.Steps[len(p.Steps)-1].Unit != parity || !p.Steps[len(p.Steps)-1].Parity {
		t.Errorf("reconstruct-write should end with one marked parity write, got %+v", p.Steps)
	}
	for _, s := range p.Steps[:len(p.Steps)-1] {
		if s.Write || s.Disk == home.Disk || s.Unit == parity {
			t.Errorf("reconstruct-write pre-read %+v touches failed disk or parity", s)
		}
	}
	if p.Stripe != stripe || p.Target != home {
		t.Errorf("reconstruct-write stripe %d target %v, want %d, lost home %v", p.Stripe, p.Target, stripe, home)
	}

	if err := pln.WriteM(0, []int{parity.Disk}, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.DataOnlyWrite || len(p.Steps) != 1 || !p.Steps[0].Write || p.Steps[0].Unit != home {
		t.Fatalf("parity-disk failure: got %v %+v, want single write of %v", p.Kind, p.Steps, home)
	}
	if p.Stripe != stripe || p.Target != parity {
		t.Errorf("data-only write stripe %d target %v, want %d, lost parity %v", p.Stripe, p.Target, stripe, parity)
	}
}

// TestFullStripeWriteSkipsFailed checks the Condition 5 plan writes the
// whole stripe with no reads, dropping the failed disk's unit.
func TestFullStripeWriteSkipsFailed(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	var p plan.Plan
	if err := pln.FullStripeWriteM(0, nil, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.FullStripeWrite || p.Reads() != 0 || p.Writes() != 3 {
		t.Fatalf("healthy full stripe: kind %v reads %d writes %d", p.Kind, p.Reads(), p.Writes())
	}
	failed := p.Steps[0].Disk
	if err := pln.FullStripeWriteM(0, []int{failed}, &p); err != nil {
		t.Fatal(err)
	}
	if p.Writes() != 2 {
		t.Fatalf("degraded full stripe writes %d, want 2", p.Writes())
	}
	for _, s := range p.Steps {
		if s.Disk == failed {
			t.Errorf("degraded full stripe writes failed disk: %+v", s)
		}
	}
}

// TestRebuildBalance checks the compiled rebuild schedule against the
// paper's Condition 3 on a ring layout (perfect reconstruction-workload
// balance) and its read counts against the survivor fraction bound.
func TestRebuildBalance(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Layout
	m, err := pdl.NewMapper(l, l.Size)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := plan.NewPlanner(m).RebuildM(4, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	min, max := rb.Balance()
	if min != max {
		t.Errorf("ring layout rebuild imbalanced: [%d,%d]", min, max)
	}
	want := int64(l.Size * (3 - 1) / (9 - 1)) // (k-1)/(v-1) of each disk
	if rb.MaxSurvivorReads() != want {
		t.Errorf("max survivor reads %d, want %d", rb.MaxSurvivorReads(), want)
	}
	if rb.Reads[4] != 0 {
		t.Error("rebuild schedule reads the failed disk")
	}
	var total int64
	for _, p := range rb.Plans {
		if p.Kind != plan.RebuildStripe || p.Writes() != 0 {
			t.Fatalf("rebuild stripe plan %v has writes", p.Kind)
		}
		if p.Target.Disk != 4 {
			t.Fatalf("rebuild target %v not on failed disk 4", p.Target)
		}
		if p.Stripe < 0 || p.Stripe >= m.Stripes() {
			t.Fatalf("rebuild stripe index %d outside [0,%d)", p.Stripe, m.Stripes())
		}
		total += int64(len(p.Steps))
	}
	var sum int64
	for _, n := range rb.Reads {
		sum += n
	}
	if total != sum {
		t.Errorf("schedule step count %d != per-disk read sum %d", total, sum)
	}
	if _, err := plan.NewPlanner(m).RebuildM(9, []int{9}); err == nil {
		t.Error("out-of-range failed disk accepted")
	}
}

// TestPlannerValidatesFailed pins the failed-set domain: disks in
// [0, disks), sorted and distinct.
func TestPlannerValidatesFailed(t *testing.T) {
	res, err := pdl.Build(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := pdl.NewMapper(res.Layout, res.Layout.Size)
	if err != nil {
		t.Fatal(err)
	}
	pln := plan.NewPlanner(m)
	var p plan.Plan
	for _, failed := range [][]int{{-1}, {9}, {3, 3}, {4, 2}} {
		if err := pln.ReadM(0, failed, &p); err == nil {
			t.Errorf("ReadM accepted failed=%v", failed)
		}
		if err := pln.WriteM(0, failed, &p); err == nil {
			t.Errorf("WriteM accepted failed=%v", failed)
		}
		if err := pln.FullStripeWriteM(0, failed, &p); err == nil {
			t.Errorf("FullStripeWriteM accepted failed=%v", failed)
		}
	}
	if err := pln.ReadM(-1, nil, &p); err == nil {
		t.Error("negative logical accepted")
	}
}
