package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// Go runtime metrics read at the edges of every solve window.
const (
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mSchedLaten = "/sched/latencies:seconds"
)

// window is the counter state at one edge of a solve: the first Seed or
// the return of the last Fence.
type window struct {
	at      time.Time
	cpu     float64 // process user+sys CPU seconds
	mallocs uint64
	bytes   uint64
	rm      []metrics.Sample
}

func readCounters() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mSchedLaten}}
	metrics.Read(rm)
	return window{cpu: cpuSeconds(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, rm: rm}
}

// cpuSeconds is the process's user+sys CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// KiB on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// goDelta is the Go runtime's share of one solve window.
type goDelta struct {
	gcCycles      float64
	gcCPU         float64 // GC CPU seconds (runtime estimate)
	schedP50Micro float64 // median wait of a runnable goroutine for a P
}

func goWindow(w0, w1 window) goDelta {
	var d goDelta
	d.gcCycles = float64(w1.rm[0].Value.Uint64() - w0.rm[0].Value.Uint64())
	d.gcCPU = w1.rm[1].Value.Float64() - w0.rm[1].Value.Float64()
	h0, h1 := w0.rm[2].Value.Float64Histogram(), w1.rm[2].Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		delta[i] = h1.Counts[i] - h0.Counts[i]
		total += delta[i]
	}
	var seen uint64
	for i, c := range delta {
		seen += c
		if total > 0 && 2*seen >= total {
			// Report the bucket's upper edge (its lower edge for the
			// open-ended last bucket).
			edge := h1.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h1.Buckets[i]
			}
			d.schedP50Micro = edge * 1e6
			break
		}
	}
	return d
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
