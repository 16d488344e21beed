package main

import "testing"

func stream(seed uint64, spec genSpec, w, n int) []op {
	g := newGen(seed, spec, w)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

var testSpecs = map[string]genSpec{
	"zipf":    {slots: 1000, workers: 2, writeFrac: 0.3, theta: 0.9},
	"uniform": {slots: 467, workers: 2, writeFrac: 0.5},
}

func TestSameSeedSameStream(t *testing.T) {
	for name, spec := range testSpecs {
		a, b := stream(7, spec, 1, 5000), stream(7, spec, 1, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two streams of seed 7: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestOtherSeedOtherStream(t *testing.T) {
	for name, spec := range testSpecs {
		a, b := stream(7, spec, 1, 5000), stream(8, spec, 1, 5000)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same > len(a)/2 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of %d ops", name, same, len(a))
		}
	}
}

func TestWorkersOwnDisjointSlots(t *testing.T) {
	for name, spec := range testSpecs {
		owner := map[int]int{}
		ids := map[uint64]bool{}
		for w := 0; w < spec.workers; w++ {
			for _, o := range stream(3, spec, w, 20000) {
				if o.slot < 0 || o.slot >= spec.slots {
					t.Fatalf("%s: slot %d outside [0, %d)", name, o.slot, spec.slots)
				}
				if prev, ok := owner[o.slot]; ok && prev != w {
					t.Fatalf("%s: slot %d used by workers %d and %d", name, o.slot, prev, w)
				}
				owner[o.slot] = w
				if ids[o.id] {
					t.Fatalf("%s: op id %d repeats", name, o.id)
				}
				ids[o.id] = true
			}
		}
	}
}

func TestMixAndSkew(t *testing.T) {
	spec := testSpecs["zipf"]
	ops := stream(11, spec, 0, 100000)
	writes := 0
	hits := map[int]int{}
	for _, o := range ops {
		if o.kind == opWrite {
			writes++
		}
		hits[o.slot]++
	}
	if frac := float64(writes) / float64(len(ops)); frac < 0.29 || frac > 0.31 {
		t.Errorf("write share %.3f, want 0.30", frac)
	}
	// Under Zipf 0.9 over 500 owned slots the hottest slot draws
	// 1/zeta(500, 0.9), about 11% of ops; uniform would give 0.2%.
	top := 0
	for _, n := range hits {
		top = max(top, n)
	}
	if frac := float64(top) / float64(len(ops)); frac < 0.09 || frac > 0.13 {
		t.Errorf("hottest slot draws %.3f of ops, want about 0.11", frac)
	}
}
