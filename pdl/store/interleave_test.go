package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/pdl"
	"repro/pdl/layout"
)

// TestRebuildInterleavings enumerates the rebuild/foreground interleaving
// space outright instead of sampling it under load: for every failure
// scenario (XOR: each single disk; RS m=2: each disk pair, with each
// member as the rebuild target), a rebuild cursor of none, half, or all
// of the target's stripes copied, and every logical unit written by
// Write, by a sub-unit WriteAt, or by a full-stripe WriteVec group, the
// store must agree with pdl/layout's Data model — reads in that state,
// then parity, every unit, and the replacement's raw bytes once the
// rebuild finishes.
func TestRebuildInterleavings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		v, k, m int
	}{
		{name: "xor", v: 9, k: 3, m: 1},
		{name: "rs2", v: 9, k: 4, m: 2},
	} {
		res, err := pdl.Build(tc.v, tc.k, pdl.WithParityShards(tc.m))
		if err != nil {
			t.Fatal(err)
		}
		var scenarios [][2]int // {rebuild target, other failed disk or -1}
		for a := 0; a < tc.v; a++ {
			if tc.m == 1 {
				scenarios = append(scenarios, [2]int{a, -1})
				continue
			}
			for b := 0; b < tc.v; b++ {
				if b != a {
					scenarios = append(scenarios, [2]int{a, b})
				}
			}
		}
		for _, sc := range scenarios {
			for _, cursor := range []string{"none", "half", "all"} {
				for _, mode := range []string{"Write", "WriteAt", "WriteVec"} {
					name := fmt.Sprintf("%s/target=%d/other=%d/copied=%s/%s", tc.name, sc[0], sc[1], cursor, mode)
					t.Run(name, func(t *testing.T) {
						if err := runInterleaving(res, sc[0], sc[1], cursor, mode); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// runInterleaving drives one cell of the interleaving table on a fresh
// store and model holding the same random contents.
func runInterleaving(res *pdl.Result, target, other int, cursor, mode string) error {
	const unitSize = 16
	l := res.Layout
	s, err := Open(res, l.Size, unitSize, nil)
	if err != nil {
		return err
	}
	model, err := layout.NewData(l, unitSize)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(target*64 + other + 1)))
	buf := make([]byte, unitSize)
	write := func(logical int) error {
		rng.Read(buf)
		if err := s.Write(logical, buf); err != nil {
			return err
		}
		return model.WriteLogical(logical, buf)
	}
	for logical := 0; logical < s.Capacity(); logical++ {
		if err := write(logical); err != nil {
			return err
		}
	}
	for _, d := range []int{target, other} {
		if d >= 0 {
			if err := s.Fail(d); err != nil {
				return err
			}
		}
	}

	sc := s.pool.Get().(*scratch)
	defer s.pool.Put(sc)
	replacement := NewMemDisk(int64(l.Size) * unitSize)
	rb, err := s.beginRebuild(sc, replacement, target)
	if err != nil {
		return err
	}
	copied := map[string]int{"none": 0, "half": len(rb.Plans) / 2, "all": len(rb.Plans)}[cursor]
	for i := 0; i < copied; i++ {
		if err := s.rebuildStripe(sc, &rb.Plans[i]); err != nil {
			return err
		}
	}

	switch mode {
	case "Write":
		for logical := 0; logical < s.Capacity(); logical++ {
			if err := write(logical); err != nil {
				return fmt.Errorf("Write(%d): %w", logical, err)
			}
		}
	case "WriteAt":
		// The middle half of every unit: a sub-unit read-modify-write.
		lo, hi := unitSize/4, 3*unitSize/4
		for logical := 0; logical < s.Capacity(); logical++ {
			cur, err := model.ReadLogical(logical)
			if err != nil {
				return err
			}
			rng.Read(cur[lo:hi])
			if _, err := s.WriteAt(cur[lo:hi], int64(logical*unitSize+lo)); err != nil {
				return fmt.Errorf("WriteAt(unit %d): %w", logical, err)
			}
			if err := model.WriteLogical(logical, cur); err != nil {
				return err
			}
		}
	case "WriteVec":
		// One group per stripe covering all of its data units: promoted
		// to the full-stripe write.
		var units []layout.Unit
		for stripe := 0; stripe < s.mapper.Stripes(); stripe++ {
			if units, err = s.mapper.AppendStripeUnits(units[:0], stripe); err != nil {
				return err
			}
			var ops []VecOp
			for _, u := range units {
				if logical, ok := s.mapper.Logical(u); ok {
					p := make([]byte, unitSize)
					rng.Read(p)
					ops = append(ops, VecOp{Logical: logical, Buf: p})
				}
			}
			if err := s.WriteVec(ops); err != nil {
				return fmt.Errorf("WriteVec(stripe %d): %w", stripe, err)
			}
			for _, o := range ops {
				if err := model.WriteLogical(o.Logical, o.Buf); err != nil {
					return err
				}
			}
		}
	}
	if err := checkUnits(s, model, "mid-rebuild"); err != nil {
		return err
	}

	for i := copied; i < len(rb.Plans); i++ {
		if err := s.rebuildStripe(sc, &rb.Plans[i]); err != nil {
			return err
		}
	}
	s.finishRebuild(true)
	if err := s.VerifyParity(); err != nil {
		return err
	}
	if err := checkUnits(s, model, "rebuilt"); err != nil {
		return err
	}
	got := make([]byte, l.Size*unitSize)
	if _, err := replacement.ReadAt(got, 0); err != nil {
		return err
	}
	if !bytes.Equal(got, model.DiskContents(target)) {
		return fmt.Errorf("replacement for disk %d differs from the model's disk contents", target)
	}
	return nil
}

// checkUnits compares every logical unit, read one at a time and as one
// ReadVec batch, against the model.
func checkUnits(s *Store, model *layout.Data, state string) error {
	ops := make([]VecOp, s.Capacity())
	got := make([]byte, s.UnitSize())
	for logical := range ops {
		ops[logical] = VecOp{Logical: logical, Buf: make([]byte, s.UnitSize())}
		want, err := model.ReadLogical(logical)
		if err != nil {
			return err
		}
		if err := s.Read(logical, got); err != nil {
			return fmt.Errorf("%s: Read(%d): %w", state, logical, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: Read(%d) = %x, model %x", state, logical, got, want)
		}
	}
	if err := s.ReadVec(ops); err != nil {
		return fmt.Errorf("%s: ReadVec: %w", state, err)
	}
	for _, o := range ops {
		if want, _ := model.ReadLogical(o.Logical); !bytes.Equal(o.Buf, want) {
			return fmt.Errorf("%s: ReadVec unit %d = %x, model %x", state, o.Logical, o.Buf, want)
		}
	}
	return nil
}
