package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has used so far
// (getrusage). Unlike wall time it does not grow with CPU steal, which is
// what makes cpu_ms_per_op the benchmark's capacity metric.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the runtime/metrics values the benchmark reports per
// op: allocation volume, GC cycles and the GC share of the runtime's CPU.
type runtimeSample struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// liveHeapMB reads the live heap as of the last completed GC cycle; the
// caller forces one first.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
	ok           bool
}

// readCPUStat reads the machine-wide CPU tick counters. The steal share over
// a run tells a reader whether a slow run was a steal outlier or a
// regression; where /proc/stat is unavailable the share prints as "n/a".
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	st.ok = true
	return st
}

// stealShare is the machine's steal share of CPU ticks between two reads.
func stealShare(a, b cpuStat) string {
	if !a.ok || !b.ok || b.total <= a.total {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(b.steal-a.steal)/float64(b.total-a.total))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
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

// percentile returns the p-th percentile (0 < p < 100) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailPercentile picks the highest percentile of a fixed ladder that still
// has at least ten samples beyond it; ok is false below forty samples, where
// no percentile above the median would be a tail.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 40 {
		return 0, false
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p, true
		}
	}
	return 75, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
