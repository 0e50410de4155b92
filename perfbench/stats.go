package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters is a snapshot of the Go runtime counters the benchmark
// turns into per-layer metrics.
type runtimeCounters struct {
	allocs  uint64  // heap objects allocated, cumulative
	gcCPU   float64 // CPU seconds spent in GC, cumulative estimate
	busyCPU float64 // CPU seconds not idle, cumulative estimate
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readCounters samples the runtime. It is called between phases from one
// goroutine at a time.
func readCounters() runtimeCounters {
	metrics.Read(counterSamples)
	var c runtimeCounters
	if v := counterSamples[0].Value; v.Kind() == metrics.KindUint64 {
		c.allocs = v.Uint64()
	}
	f := func(i int) float64 {
		if v := counterSamples[i].Value; v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return 0
	}
	c.gcCPU = f(1)
	c.busyCPU = f(2) - f(3)
	return c
}

// gcCPUFrac is the share of the process's busy CPU the garbage collector
// took between two snapshots.
func gcCPUFrac(from, to runtimeCounters) float64 {
	busy := to.busyCPU - from.busyCPU
	if busy <= 0 {
		return 0
	}
	return (to.gcCPU - from.gcCPU) / busy
}
