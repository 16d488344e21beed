// Command perfbench is the repository's benchmark of record. It runs one
// seeded workload through the public API, checks every byte it reads
// back, and prints its metrics as one JSON object on the last line:
//
//	go run . --workload serve-unit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it replays the workload's op stream down the layers and
// reports per-layer metrics. --workload all runs every workload of the
// record in turn.
// run.sh builds it from source and runs it from the repository root.
// DESIGN.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one seeded traffic shape. setup provisions a fresh
// instance; trace replays its op stream down the layers.
type workload struct {
	name     string
	geometry string
	// setups is how many times an untraced run provisions the workload;
	// setup_s is their median, and the last instance is measured.
	setups int
	setup  func(seed uint64, workdir string) (*env, error)
	trace  func(l *ladder) error
}

// workloads are the benchmark of record, in the order BENCHMARK.json
// lists them.
var workloads = []*workload{serveUnit, clusterSpan}

// heldBack are workloads on which the program returns wrong bytes today.
// They run by name and report the damage as measured, but stay out of
// the record until the program is fixed: rebuild-rs2 hits ROADMAP P0,
// the two-failure rebuild hole (DESIGN.md).
var heldBack = []*workload{rebuildRS2}

func findWorkload(name string) *workload {
	for _, w := range append(workloads, heldBack...) {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-unit, cluster-span, all (both), or the held-back rebuild-rs2")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch arrays and span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var run []*workload
	if *name == "all" {
		run = workloads
	} else if w := findWorkload(*name); w != nil {
		run = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printMachine(*seed)
	for _, w := range run {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// printMachine records the box and build a result was measured on.
func printMachine(seed uint64) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, seed)
}

func runWorkload(w *workload, seed uint64, window time.Duration, traced bool, workdir string, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "workload: %s seed=%d seconds=%g traced=%v %s\n", w.name, seed, window.Seconds(), traced, w.geometry)
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if traced {
		e, err := w.setup(seed, workdir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		l := &ladder{e: e, seed: seed, t: newTracer(e.spec.workers), res: res, budget: window, out: out}
		terr := w.trace(l)
		if terr == nil {
			terr = l.finish(workdir, w.name)
		}
		if err := e.close(); err != nil && terr == nil {
			terr = err
		}
		if terr != nil {
			return nil, terr
		}
		res.Correct = res.Failed == 0
		printMetrics(out, res)
		return res, nil
	}

	var setups []float64
	var e *env
	for i := 0; i < w.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
			// Each set-up starts from a collected heap whose pages went back
			// to the OS, so every set-up faults in its memory afresh. Kept,
			// the pages were reused or not as the runtime's scavenger
			// happened to run, and serve-unit's median set-up split into a
			// 2.4 ms and a 3.8 ms mode from run to run.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed, workdir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	steal0, total0 := cpuSteal()
	st, err := e.measure(seed, window)
	steal1, total1 := cpuSteal()
	if cerr := e.close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	st.report(out, res)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["rss_mb"] = metric{st.rssMB, "MB"}
	fmt.Fprintf(out, "setup_s samples=%d %v\n", len(setups), fmtFloats(setups))
	if total1 > total0 {
		fmt.Fprintf(out, "host steal: %.2f%% of CPU time while measuring\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	res.Correct = res.Failed == 0
	printMetrics(out, res)
	return res, nil
}

func printMetrics(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d failed_frac=%.3g\n", res.Correct, res.Attempted, res.Failed, frac)
}

// maxRSSMB is the process's peak resident set in decimal MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
