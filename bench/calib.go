package main

import (
	"math"
	"time"
)

// The calibration kernel is a fixed amount of pure-Go work run after
// every timed operation: a dependent chain of logarithms and
// exponentials, then random reads over a table larger than a core's
// private caches, indexed by an xorshift stream. Timing an operation as a
// multiple of the kernel's time measured right next to it cancels what
// slows both alike on a shared host: a lower clock, a co-tenant on the
// same core, a neighbour thrashing the last-level cache. The two halves
// matter: on the 2-CPU host the benchmark was defined on, either half
// alone tracked the workloads' slow phases worse than their sum. The
// kernel does not cancel what hits the operation alone, such as disk
// flushes or garbage collection inside it.
const (
	calChain      = 150_000     // log/exp steps, about 6 ms
	calTableWords = 4 << 20 / 8 // 4 MiB of uint64
	calReads      = 1 << 20     // about 4 ms
	// calRefSeconds defines the nominal host setup_s is reported on: one
	// where the kernel takes 10 ms. It is a unit, not a measurement: on
	// the 2-CPU Xeon the benchmark was defined on, the kernel's median
	// over a run ranged from 10 to 17 ms with the load of other tenants.
	calRefSeconds = 0.010
)

var (
	calTable = newCalTable()
	// calSink keeps the kernel's results live so the compiler cannot
	// drop the work.
	calSink float64
)

func newCalTable() []uint64 {
	t := make([]uint64, calTableWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}

// calibrate runs the kernel once and returns its wall time in seconds.
func calibrate() float64 {
	start := time.Now()
	y := 0.5
	for i := 0; i < calChain; i++ {
		y = math.Log(1+y*1.0001) + math.Exp(-y)
	}
	x := uint64(0x2545F4914F6CDD1D)
	var sum uint64
	for i := 0; i < calReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += calTable[x&(calTableWords-1)]
	}
	calSink += y + float64(sum)
	return time.Since(start).Seconds()
}
