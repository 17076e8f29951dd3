package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter accumulates wall and CPU time over the measured calls of a
// loop, leaving out the benchmark's own checking in between.
type meter struct {
	wall, cpu time.Duration
	lat       []float64 // per-call wall time, ms
}

// time runs fn, adds its wall and CPU time, and returns the wall time.
func (m *meter) time(fn func()) time.Duration {
	c0, t0 := cpuTime(), time.Now()
	fn()
	el := time.Since(t0)
	m.wall += el
	m.cpu += cpuTime() - c0
	m.lat = append(m.lat, ms(el))
	return el
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundSim is the simulated work of one round: the cycles, energy and
// races of every operation that raced.
type roundSim struct {
	cycles  int64
	energyJ float64
	races   int
}

func (s *roundSim) add(cycles int, energyJ float64, races int) {
	s.cycles += int64(cycles)
	s.energyJ += energyJ
	s.races += races
}

// sameAsFirst keeps the first round's simulated work in *first and
// checks that every later round simulates exactly the same.
func (r *run) sameAsFirst(first **roundSim, sim *roundSim, round int) {
	if *first == nil {
		*first = sim
	} else if *sim != **first {
		r.op(fmt.Errorf("round %d simulated %+v, round 0 %+v", round, *sim, **first))
	}
}

// setSim reports one round's simulated work per query.
func (r *run) setSim(sim *roundSim, queries int) {
	r.set("sim_cycles_per_query", float64(sim.cycles)/float64(queries), "cycles")
	r.set("sim_energy_pj_per_query", sim.energyJ*1e12/float64(queries), "pJ")
}

// betweenRounds times fn, a rebuild measured between two rounds of the
// loop so that its samples spread over the whole run.  Garbage is
// collected before and after it, so neither it nor the rounds pay for
// the other's allocations.
func betweenRounds(fn func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	runtime.GC()
	return el, err
}

// heldHeapMiB collects garbage and reports the live heap; the caller
// keeps the measured state reachable across the call.
func heldHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
