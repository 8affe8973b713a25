package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// instance is one workload after a complete set-up.
type instance interface {
	// clients is the number of closed-loop driver goroutines.
	clients() int
	// verify is the untimed verification pass. It reports how many checks it
	// made and how many failed, and records the deterministic quality numbers.
	verify(out map[string]float64) (attempted, failed int64)
	// op runs client c's i-th operation of a phase and returns the units of
	// work it completed (routes, hosts joined, queries, calls). An op that
	// returns an error or a wrong answer counts as failed.
	op(c, i int, tr *tracer) (units int64, err error)
	// probe takes the per-layer measurements that need calls of their own;
	// only the traced run calls it, after the measured phases.
	probe(tr *tracer, out map[string]float64) error
	// derive turns the traced phase's spans and counter deltas into the
	// instance's per-layer numbers.
	derive(ph phase, lv layerView, out map[string]float64)
	// counters reads the monotonic per-layer counters (messages, dials, ...)
	// whose deltas over a phase become per-op counts.
	counters() map[string]float64
	close()
}

// sample is one completed op as its client recorded it.
type sample struct {
	end   int64 // ns since the phase started
	dur   int64 // ns
	units int64
}

// sliceStat summarises K consecutive completed ops.
type sliceStat struct {
	throughput    float64 // units per second of slice wall time
	p50, p90, p99 float64 // ms, over the ops of the slice
}

// phase is one measured phase: what the clients recorded plus the process
// cost over exactly that interval.
type phase struct {
	samples   []sample // all clients, ordered by completion
	slices    []sliceStat
	units     int64
	failed    int64
	cpuUs     float64
	allocs    float64
	allocB    float64
	gcCycles  float64
	gcPauseMs float64
	counters  map[string]float64 // deltas
}

// measure drives every client in a closed loop for at least d and at least
// minSlices slices of sliceOps completed ops, and stops when the slice in
// progress completes: a faster program yields more slices, never a shorter
// phase.
func measure(inst instance, sliceOps, minSlices int, d time.Duration, trs []*tracer) phase {
	var (
		done   atomic.Int64
		failed atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	per := make([][]sample, inst.clients())
	before := inst.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			for i := 0; !stop.Load(); i++ {
				tr.setOp(int64(i))
				t0 := time.Now()
				units, err := inst.op(c, i, tr)
				t1 := time.Now()
				if err != nil {
					failed.Add(1)
				}
				per[c] = append(per[c], sample{end: int64(t1.Sub(start)), dur: int64(t1.Sub(t0)), units: units})
				n := done.Add(1)
				if n%int64(sliceOps) == 0 && n/int64(sliceOps) >= int64(minSlices) && t1.Sub(start) >= d {
					stop.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	after := inst.counters()

	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	ph := phase{
		samples:   all,
		slices:    cutSlices(all, sliceOps),
		failed:    failed.Load(),
		cpuUs:     float64(cpu1-cpu0) / 1e3,
		allocs:    float64(ms1.Mallocs - ms0.Mallocs),
		allocB:    float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcCycles:  float64(ms1.NumGC - ms0.NumGC),
		gcPauseMs: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		counters:  map[string]float64{},
	}
	for _, s := range all {
		ph.units += s.units
	}
	for k, v := range after {
		ph.counters[k] = v - before[k]
	}
	return ph
}

// cutSlices groups completion-ordered samples into slices of k ops; a
// trailing partial slice is dropped. Slice wall time runs from the previous
// slice's last completion (the phase start for the first slice) to this
// slice's last completion.
func cutSlices(all []sample, k int) []sliceStat {
	var out []sliceStat
	prevEnd := int64(0)
	durs := make([]float64, 0, k)
	for lo := 0; lo+k <= len(all); lo += k {
		group := all[lo : lo+k]
		durs = durs[:0]
		units := int64(0)
		for _, s := range group {
			durs = append(durs, float64(s.dur)/1e6)
			units += s.units
		}
		sort.Float64s(durs)
		end := group[k-1].end
		out = append(out, sliceStat{
			throughput: float64(units) / (float64(end-prevEnd) / 1e9),
			p50:        percentileSorted(durs, 0.50),
			p90:        percentileSorted(durs, 0.90),
			p99:        percentileSorted(durs, 0.99),
		})
		prevEnd = end
	}
	return out
}

// minPercentileOps is the slice size below which an in-slice percentile
// means nothing; such workloads (sim-scale, one world per slice) take their
// latency percentiles over all ops of the phase instead.
const minPercentileOps = 10

// latencies returns the phase's p50/p90/p99 in ms: the median over slices of
// the in-slice percentile, or the percentile over the whole phase when a
// slice holds fewer than minPercentileOps ops.
func (ph phase) latencies(sliceOps int) (p50, p90, p99 float64) {
	if sliceOps >= minPercentileOps {
		return medianOf(ph.slices, func(s sliceStat) float64 { return s.p50 }),
			medianOf(ph.slices, func(s sliceStat) float64 { return s.p90 }),
			medianOf(ph.slices, func(s sliceStat) float64 { return s.p99 })
	}
	durs := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		durs[i] = float64(s.dur) / 1e6
	}
	sort.Float64s(durs)
	return percentileSorted(durs, 0.50), percentileSorted(durs, 0.90), percentileSorted(durs, 0.99)
}

// throughput is the median over slices of units per second.
func (ph phase) throughput() float64 {
	return medianOf(ph.slices, func(s sliceStat) float64 { return s.throughput })
}

// sliceIQRRatio is (q3 - q1) / median of slice throughput: how much the run
// itself wobbled.
func (ph phase) sliceIQRRatio() float64 {
	v := make([]float64, len(ph.slices))
	for i, s := range ph.slices {
		v[i] = s.throughput
	}
	sort.Float64s(v)
	med := percentileSorted(v, 0.5)
	if med == 0 {
		return 0
	}
	return (percentileSorted(v, 0.75) - percentileSorted(v, 0.25)) / med
}

func medianOf(slices []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = f(s)
	}
	return median(v)
}

// median returns the median of v (0 for an empty input); v is not modified.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentileSorted(s, 0.5)
}

// percentileSorted returns the p-quantile (0..1) of an ascending slice by
// linear interpolation between the two nearest order statistics. The
// estimators live here and not in internal/stats so that no change to the
// program under test can move them.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// setUp runs build r times, timing each complete set-up, closes all but the
// last instance and returns it with the median set-up time in seconds. One
// set-up of tens of milliseconds moves 25-30% between processes; the median
// of several does not.
func setUp(r int, build func(round int) (instance, error)) (instance, float64, error) {
	var (
		inst  instance
		times []float64
	)
	for i := 0; i < r; i++ {
		if inst != nil {
			// Untimed: tear the previous set-up down and collect it, so that
			// peak RSS shows what the system needs, not what R set-ups leave.
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		next, err := build(i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		inst = next
	}
	return inst, median(times), nil
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed spin loop (xorshift, no memory traffic) and returns
// the median of five repeats in ms. The same loop before and after a run
// tells a reader whether the host itself changed speed in between; the median
// ignores the sub-second bursts in which this kind of host runs a quarter
// faster.
func calibrate(smoke bool) float64 {
	iters := 30_000_000
	if smoke {
		iters /= 10
	}
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		reps = append(reps, float64(time.Since(t0))/1e6)
	}
	return median(reps)
}
