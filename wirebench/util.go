package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().HeapAlloc
}

// quantile returns the q-quantile (nearest rank) of xs, sorting a copy.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q * float64(len(s)-1))
	return float64(s[i])
}

// windowedQuantile cuts lat into consecutive windows holding at least win
// of batch time and returns the interquartile mean of the windows'
// q-quantiles. On a shared host, slow and fast phases can each last from
// a fraction of a second to seconds; a whole-run quantile of that
// two-mode mixture flips between the modes, while an average over windows
// follows the time each mode held, like pps. The interquartile mean also
// drops the windows in which the host stalled the process: a plain mean
// of window p99s read 2.3 ms on one wire-fleet run, 0.5–0.8 ms on nine others.
func windowedQuantile(lat []int64, win time.Duration, q float64) float64 {
	var qs []int64
	for from := 0; from < len(lat); {
		var sum int64
		to := from
		for to < len(lat) && sum < int64(win) {
			sum += lat[to]
			to++
		}
		if sum < int64(win) && len(qs) > 0 {
			break // a short tail window would weigh as much as a full one
		}
		qs = append(qs, int64(quantile(lat[from:to], q)))
		from = to
	}
	return interquartileMean(qs)
}

// interquartileMean returns the mean of the middle half of xs. Like a
// mean it follows the share of time each host phase held instead of
// flipping between the modes, and unlike a plain mean it ignores the few
// samples a preemption stretched.
func interquartileMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += float64(x)
	}
	return sum / float64(len(mid))
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeat times fn (which reports how many units it processed) until at
// least minTotal has elapsed and at least minReps runs were made, and
// returns the median nanoseconds per unit over the runs. prep runs
// untimed before every run.
func repeat(minReps int, minTotal time.Duration, prep func(), fn func() int) float64 {
	var per []float64
	var total int64
	for len(per) < minReps || total < int64(minTotal) {
		if prep != nil {
			prep()
		}
		t0 := nanotime()
		n := fn()
		d := nanotime() - t0
		total += d
		if n > 0 {
			per = append(per, float64(d)/float64(n))
		}
		if len(per) >= 1000 {
			break
		}
	}
	return medianF(per)
}

// hostProbe times a fixed integer loop the benchmark owns: a noise
// diagnostic for the host, never used to rescale another figure. It
// returns the median nanoseconds per iteration over seven runs.
func hostProbe() float64 {
	const iters = 1 << 22
	var sink uint64
	per := make([]float64, 0, 7)
	for r := 0; r < 7; r++ {
		x := uint64(r) + 0x9e3779b97f4a7c15
		t0 := nanotime()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x2545f4914f6cdd1d
		}
		per = append(per, float64(nanotime()-t0)/iters)
		sink += x
	}
	probeSink = sink
	return medianF(per)
}

var probeSink uint64
