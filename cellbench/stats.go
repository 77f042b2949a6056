package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds is the user+sys CPU time of this process plus every
// child it has waited for (shard workers).
func cpuSeconds() float64 {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is this process's own peak resident set in MiB: VmHWM of
// /proc/self/status. getrusage's Maxrss will not do: os/exec starts a
// child sharing its parent's memory map until exec, and the kernel
// carries that map's high-water mark into the child's Maxrss, so the
// generator's memory would show as the child's.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak resident memory: %w", err)
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak resident memory: VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak resident memory: no VmHWM in /proc/self/status")
}

// resetPeakRSS returns the heap's free pages to the system and resets
// VmHWM to the current resident set, so the next peakRSSMB reads the
// peak of the work done in between: one rep or one life.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident memory: %w", err)
	}
	return nil
}

// quartiles are the three cut points of xs in Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method), so a
// spread printed here matches one computed there. xs needs two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile is the q-quantile of xs interpolated linearly between
// the closest ranks (0 when empty): steadier than the nearest rank
// when a run has few samples beyond q.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is the midpoint median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupSamples is how many times a rep times its set-up; the median
// of many keeps a sub-millisecond set-up steady.
const setupSamples = 25

// timeSetup times fn n times and returns every duration in seconds.
func timeSetup(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}
