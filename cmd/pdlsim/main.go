// Command pdlsim runs the disk-array simulator on a generated layout:
// offline rebuild, online rebuild under client load, or a pure client
// workload (optionally degraded).
//
// Usage:
//
//	pdlsim -v 17 -k 4 -mode rebuild
//	pdlsim -v 17 -k 4 -mode online -ops 5000 -write 0.3
//	pdlsim -v 17 -k 4 -mode serve -fail 2
//	pdlsim -v 17 -k 4 -mode serve -fail 2 -trace
//
// With -trace, the compiled pdl/plan I/O plan for a sampled request (and
// for the first rebuild stripe, in rebuild modes) is dumped before the
// run — the physical reads and writes, grouped by dependency stage, that
// the engine will execute.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/pdl"
	"repro/pdl/layout"
	"repro/pdl/plan"
	"repro/pdl/sim"
)

func main() {
	v := flag.Int("v", 9, "number of disks")
	k := flag.Int("k", 3, "parity stripe size")
	mode := flag.String("mode", "rebuild", "rebuild|online|serve")
	fail := flag.Int("fail", 0, "disk to fail (-1 = none, serve mode only)")
	ops := flag.Int("ops", 2000, "client operations")
	writeFrac := flag.Float64("write", 0.3, "write fraction")
	inter := flag.Int64("interarrival", 2, "ticks between client ops")
	service := flag.Int64("service", 1, "ticks per unit transfer")
	seed := flag.Uint64("seed", 42, "workload seed")
	layoutPath := flag.String("layout", "", "simulate a pdlgen JSON layout instead of generating one")
	copies := flag.Int("copies", 1, "layout copies per disk (disk size = copies * layout size)")
	trace := flag.Bool("trace", false, "dump the compiled I/O plan for a sampled request before the run")
	flag.Parse()

	var l *layout.Layout
	if *layoutPath != "" {
		f, err := os.Open(*layoutPath)
		if err != nil {
			fatal(err)
		}
		l, err = layout.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("layout: %s, v=%d size=%d\n", *layoutPath, l.V, l.Size)
	} else {
		res, err := pdl.Build(*v, *k)
		if err != nil {
			fatal(err)
		}
		l = res.Layout
		fmt.Printf("layout: %s, v=%d k=%d size=%d\n", res.Method, *v, *k, l.Size)
	}
	a, err := sim.New(l, sim.Config{ServiceTime: *service, Copies: *copies})
	if err != nil {
		fatal(err)
	}
	if *trace {
		tracePlans(a, *mode, *fail, *writeFrac, *seed)
	}
	switch *mode {
	case "rebuild":
		res, err := a.RebuildOffline(*fail, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("offline rebuild of disk %d:\n", *fail)
		fmt.Printf("  max survivor reads: %d of %d units (%.4f of each disk; paper bound (k-1)/(v-1) = %.4f)\n",
			res.MaxSurvivorReads, a.DiskUnits(), res.SurvivorFraction, float64(*k-1)/float64(*v-1))
		fmt.Printf("  makespan: %d ticks\n", res.Makespan)
	case "online":
		gen := sim.NewUniform(a.DataUnits(), *writeFrac, *seed)
		cres, rres, err := a.RebuildOnline(gen, *ops, *inter, *fail)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("online rebuild of disk %d under %s:\n", *fail, gen.Name())
		fmt.Printf("  client: %d ops, avg latency %.2f, max %d\n", cres.Ops, cres.AvgLatency(), cres.MaxLatency)
		fmt.Printf("  rebuild: survivor fraction %.4f, makespan %d\n", rres.SurvivorFraction, rres.Makespan)
	case "serve":
		if *fail >= 0 {
			if err := a.Fail(*fail); err != nil {
				fatal(err)
			}
		}
		gen := sim.NewUniform(a.DataUnits(), *writeFrac, *seed)
		res, err := a.ServeWorkload(gen, *ops, *inter)
		if err != nil {
			fatal(err)
		}
		state := "healthy"
		if *fail >= 0 {
			state = fmt.Sprintf("degraded (disk %d failed)", *fail)
		}
		fmt.Printf("%s service under %s: avg latency %.2f, P95 %d, P99 %d, max %d, completion %d\n",
			state, gen.Name(), res.AvgLatency(),
			res.Latencies.Percentile(95), res.Latencies.Percentile(99),
			res.MaxLatency, res.Completion)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// tracePlans compiles and dumps the I/O plans the engine would execute
// for a request sampled from the workload (a fresh generator with the run
// seed, so the run itself is unperturbed), plus the first rebuild stripe
// schedule in the rebuild modes.
func tracePlans(a *sim.Array, mode string, fail int, writeFrac float64, seed uint64) {
	pln := a.Planner()
	var failed []int
	if fail >= 0 {
		failed = []int{fail}
	}
	op := sim.NewUniform(a.DataUnits(), writeFrac, seed).Next()
	var p plan.Plan
	var err error
	if op.Kind == sim.Write {
		err = pln.WriteM(op.Logical, failed, &p)
	} else {
		err = pln.ReadM(op.Logical, failed, &p)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace: sampled request plan (%d reads, %d writes, %d stages)\n  %s\n",
		p.Reads(), p.Writes(), p.Stages(), p.String())
	if err := pln.FullStripeWriteM(op.Logical, failed, &p); err != nil {
		fatal(err)
	}
	fmt.Printf("trace: full-stripe alternative for the same address\n  %s\n", p.String())
	if (mode == "rebuild" || mode == "online") && fail >= 0 {
		rb, err := pln.RebuildM(fail, failed)
		if err != nil {
			fatal(err)
		}
		min, max := rb.Balance()
		fmt.Printf("trace: rebuild schedule for disk %d: %d stripe plans, per-disk reads in [%d,%d]\n",
			fail, len(rb.Plans), min, max)
		if len(rb.Plans) > 0 {
			fmt.Printf("  first stripe: %s\n", rb.Plans[0].String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdlsim:", err)
	os.Exit(1)
}
