package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the
// program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricPrinted checks BENCHMARK.json lists the workloads of
// the record, then runs every workload, held back ones too, on a short
// budget, untraced and traced, and checks the result line names every
// metric of BENCHMARK.json with its unit and nothing else.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the record has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the record's is %q", i, sw.Name, workloads[i].name)
		}
	}
	for _, w := range append(workloads, heldBack...) {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := runWorkload(w, 5, time.Second, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.name, traced, res.Attempted)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestCheckerCountsCorruption overwrites one unit on a disk behind the
// store's back and checks the run counts the damage as failures.
func TestCheckerCountsCorruption(t *testing.T) {
	e, err := setupServeUnit(9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	st := e.stores[0]
	home, err := st.Mapper().Map(0)
	if err != nil {
		t.Fatal(err)
	}
	junk := []byte(strings.Repeat("not the payload ", unitSize/16))
	if _, err := st.DiskBackend(home.Disk).WriteAt(junk, int64(home.Offset)*unitSize); err != nil {
		t.Fatal(err)
	}
	// Read-only load and no rebuild cycles: a write to the unit or a
	// rebuild of its disk would repair the damage before the sweep.
	e.spec.writeFrac = 0
	e.rebuild = nil
	rs, err := e.measure(9, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res := &result{Metrics: map[string]metric{}}
	var out strings.Builder
	rs.report(&out, res)
	if res.Failed < 1 {
		t.Fatalf("corrupted unit not counted: attempted %d failed %d\n%s", res.Attempted, res.Failed, out.String())
	}
	if rs.sweepBad != 1 {
		t.Errorf("sweep found %d bad units, want 1", rs.sweepBad)
	}
	if !strings.Contains(out.String(), "verify parity") {
		t.Errorf("parity check did not report the damaged stripe:\n%s", out.String())
	}
}
