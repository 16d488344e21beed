package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Host steal is time the machine gives this virtual machine's CPUs to
// other tenants. It comes in bursts of seconds to minutes, with load
// that slows the program further, and it moved the serving paths by up
// to a fifth between runs of the same code. So a measured phase is cut
// into sub-windows, steal is read at every boundary, and figures come
// from the quietest quarter of the sub-windows. Every sub-window is
// printed, and the correctness checks count every operation.

// stealClock samples host steal at start+sub, start+2·sub, … start+n·sub.
type stealClock struct {
	start time.Time
	sub   time.Duration
	ticks []int64 // cumulative steal at each boundary; ticks[0] at start
	done  chan struct{}
}

func startStealClock(sub time.Duration, n int) *stealClock {
	c := &stealClock{start: time.Now(), sub: sub, ticks: make([]int64, n+1), done: make(chan struct{})}
	c.ticks[0], _ = cpuSteal()
	go func() {
		defer close(c.done)
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(c.start.Add(time.Duration(i) * sub)))
			c.ticks[i], _ = cpuSteal()
		}
	}()
	return c
}

// end is when the last sub-window closes.
func (c *stealClock) end() time.Time {
	return c.start.Add(time.Duration(len(c.ticks)-1) * c.sub)
}

// wait returns once the last boundary has been sampled.
func (c *stealClock) wait() { <-c.done }

// steal returns each sub-window's steal ticks; call it after wait.
func (c *stealClock) steal() []float64 {
	s := make([]float64, len(c.ticks)-1)
	for i := range s {
		s[i] = float64(c.ticks[i+1] - c.ticks[i])
	}
	return s
}

// quiet marks the sub-windows with no more steal than the lower
// quartile: at least a quarter of them, ties included.
func (c *stealClock) quiet() []bool {
	s := c.steal()
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	limit := sorted[(len(s)-1)/4]
	q := make([]bool, len(s))
	for i, v := range s {
		q[i] = v <= limit
	}
	return q
}

// index returns the sub-window holding t, or -1 outside the clock.
func (c *stealClock) index(t time.Time) int {
	if t.Before(c.start) || !t.Before(c.end()) {
		return -1
	}
	return int(t.Sub(c.start) / c.sub)
}

// cycleSeconds returns the durations of the cycles that ended in a quiet
// sub-window of c, or of every cycle when none did.
func cycleSeconds(cs []cycle, c *stealClock) []float64 {
	q := c.quiet()
	var kept, all []float64
	for _, cy := range cs {
		all = append(all, cy.d.Seconds())
		if i := c.index(cy.end); i >= 0 && q[i] {
			kept = append(kept, cy.d.Seconds())
		}
	}
	if len(kept) == 0 {
		return all
	}
	return kept
}

// cpuSteal returns the steal and total ticks of /proc/stat's cpu line.
// Both are 0 where the file is missing, which keeps every sub-window.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
