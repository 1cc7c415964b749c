package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is the process's resource counters at one instant, or
// their change over an interval.
type procSample struct {
	user, sys  time.Duration
	ctxSwitch  int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		ctxSwitch:  ru.Nvcsw + ru.Nivcsw,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// since is what happened between a and d.
func (d procSample) since(a procSample) procSample {
	return procSample{
		user:       d.user - a.user,
		sys:        d.sys - a.sys,
		ctxSwitch:  d.ctxSwitch - a.ctxSwitch,
		mallocs:    d.mallocs - a.mallocs,
		allocBytes: d.allocBytes - a.allocBytes,
		gcCycles:   d.gcCycles - a.gcCycles,
		gcPauseNS:  d.gcPauseNS - a.gcPauseNS,
	}
}

func (d procSample) cpu() time.Duration { return d.user + d.sys }

func (d procSample) sysShare() float64 {
	if d.cpu() <= 0 {
		return 0
	}
	return float64(d.sys) / float64(d.cpu())
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
