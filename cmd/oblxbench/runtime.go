package main

import (
	"runtime/metrics"
	"syscall"
)

// runtimeSample is a point reading of the Go runtime's cumulative
// allocation and CPU counters and of the process's CPU time.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	processCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	r.processCPU = processCPU()
	return r
}

// processCPU is the CPU time, user plus system, this process has used.
// Unlike wall time it excludes time the hypervisor stole from the
// machine's virtual CPUs.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rssMaxMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in KiB).
func rssMaxMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
