package main

import "math"

// The benchmark owns its operation generator, so a change to the
// repository's simulator or scenario packages cannot change a workload:
// the same seed gives the same op stream on every commit.

// rng is splitmix64: a seedable 64-bit generator with no bad seeds.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix derives an independent stream seed from a run seed and a label,
// so workers, disk choices and payloads draw from unrelated streams.
func mix(seed uint64, label string, i int) uint64 {
	h := seed ^ 0x6A09E667F3BCC909
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	r := rng{s: h ^ uint64(i)*0xD1B54A32D192ED03}
	return r.next()
}

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta
// for 0 < theta < 1, by the closed-form method of Gray et al., "Quickly
// generating billion-record synthetic databases" (SIGMOD '94).
type zipf struct {
	n                  int
	theta, alpha, zetn float64
	eta, half          float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetn: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetn)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetn
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	i := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// op is one generated operation on a slot: a data unit, or an aligned
// span on cluster-span. id is unique over the run's workers and is the
// same at every rung of a traced replay.
type op struct {
	id   uint64
	kind opKind
	slot int
}

// gen is one worker's op stream. Worker w of W owns the slots congruent
// to w mod W, so no two workers touch the same slot and every read can
// be checked against the last acknowledged write.
type gen struct {
	r         *rng
	worker    int
	workers   int
	owned     int
	writeFrac float64
	z         *zipf   // nil: uniform addressing
	perm      []int32 // scatters Zipf ranks over the owned slots
	seq       uint64
}

// genSpec fixes a workload's addressing: slots in total, the worker
// count, the write share, and the Zipf exponent (0 for uniform).
type genSpec struct {
	slots     int
	workers   int
	writeFrac float64
	theta     float64
}

// newGen returns worker w's stream for a seed. The Zipf table and the
// rank scatter depend only on the seed and the spec.
func newGen(seed uint64, spec genSpec, w int) *gen {
	owned := spec.slots / spec.workers
	if w < spec.slots%spec.workers {
		owned++
	}
	g := &gen{
		r:         newRNG(mix(seed, "ops", w)),
		worker:    w,
		workers:   spec.workers,
		owned:     owned,
		writeFrac: spec.writeFrac,
	}
	if spec.theta > 0 {
		g.z = newZipf(owned, spec.theta)
		g.perm = make([]int32, owned)
		for i := range g.perm {
			g.perm[i] = int32(i)
		}
		pr := newRNG(mix(seed, "perm", w))
		for i := owned - 1; i > 0; i-- {
			j := pr.intn(i + 1)
			g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		}
	}
	return g
}

func (g *gen) next() op {
	o := op{id: g.seq*uint64(g.workers) + uint64(g.worker)}
	g.seq++
	if g.r.float() < g.writeFrac {
		o.kind = opWrite
	}
	var i int
	if g.z != nil {
		i = int(g.perm[g.z.draw(g.r)])
	} else {
		i = g.r.intn(g.owned)
	}
	o.slot = i*g.workers + g.worker
	return o
}
