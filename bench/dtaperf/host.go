package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. A shared 2-vCPU sandbox changes speed under
// the benchmark (cache and memory-bandwidth neighbours, a busy sibling
// hyperthread), by far more than the bounds the benchmark has to
// resolve. Every cycle therefore starts with two fixed kernels, and
// every timing taken in that cycle is scaled to the reference host:
//
//	slowdown  = memWeight × mem_ns/refMemNs + (1−memWeight) × alu_ns/refAluNs
//	corrected = raw ÷ slowdown            (a rate: raw × slowdown)
//
// The kernels are never touched by a product change, so a ratio between
// two commits measured under the same host mood is preserved, while the
// mood itself divides out.

const (
	calWords = 1 << 22 // 32 MiB of uint64: larger than any cache share here
	calMemN  = 1 << 19
	calAluN  = 1 << 21

	// refMemNs and refAluNs are the kernels' medians on the capture host
	// (NOISE.md). They only fix the scale of corrected numbers.
	refMemNs = 15.0
	refAluNs = 1.1
	// memWeight is the share of the memory kernel in the correction: the
	// equal-weight blend, frozen from the evidence in NOISE.md. The
	// memory kernel alone (1.0) over-corrects: it is far more sensitive
	// to a busy host than any workload is.
	memWeight = 0.5
)

type calibrator struct {
	mem  []uint64
	seed splitmix64
}

func newCalibrator() *calibrator {
	c := &calibrator{mem: make([]uint64, calWords), seed: 0xC0FFEE}
	for i := range c.mem { // fault every page in now, not inside a timed kernel
		c.mem[i] = uint64(i)
	}
	return c
}

// hostSpeed is one calibration sample.
type hostSpeed struct {
	memNs float64 // ns per splitmix-indexed read-modify-write into 32 MiB
	aluNs float64 // ns per splitmix step in registers
}

var calSink uint64

// measure runs both kernels three times and keeps each one's median, so
// one preempted kernel does not skew a whole cycle.
func (c *calibrator) measure() hostSpeed {
	var mem, alu [3]float64
	for i := range mem {
		r := c.seed
		t0 := time.Now()
		for j := 0; j < calMemN; j++ {
			x := r.next()
			c.mem[x&(calWords-1)] += x
		}
		mem[i] = float64(time.Since(t0).Nanoseconds()) / calMemN
		c.seed = r

		t0 = time.Now()
		var acc uint64
		for j := 0; j < calAluN; j++ {
			acc += r.next()
		}
		alu[i] = float64(time.Since(t0).Nanoseconds()) / calAluN
		calSink += acc
	}
	return hostSpeed{memNs: median(mem[:]), aluNs: median(alu[:])}
}

// slowdown is how much slower than the reference host s is, for work
// that is memWeight memory-bound: corrected time = raw ÷ slowdown,
// corrected rate = raw × slowdown.
func (s hostSpeed) slowdown() float64 { return s.slowdownAt(memWeight) }

func (s hostSpeed) slowdownAt(w float64) float64 {
	return w*s.memNs/refMemNs + (1-w)*s.aluNs/refAluNs
}

// cpuNow returns the CPU time the whole process has consumed, user and
// system, all threads. CLOCK_PROCESS_CPUTIME_ID is the same quantity
// getrusage reports, at nanosecond instead of scheduler-tick resolution.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss is KiB
// on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
