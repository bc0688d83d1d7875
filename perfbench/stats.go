package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// now is the benchmark's only wall-clock source. Every timing the
// benchmark reports is a difference of two now() readings; none of them
// reaches the program under test.
func now() time.Time {
	return time.Now() //hetlint:allow detnondet the benchmark measures real host time, never experiment output
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// Quantile returns the q-quantile (0 <= q <= 1) of the raw samples by
// linear interpolation between closest ranks (the "type 7" estimator of
// R and numpy): rank h = (n-1)q, value x[floor h] + (h-floor h)(x[floor h
// + 1]-x[floor h]). It sorts a copy, so the caller's order is kept. An
// empty sample has no quantile: the result is NaN.
func Quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	h := float64(n-1) * q
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return xs[n-1]
	}
	if lo < 0 {
		return xs[0]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// Median is Quantile(samples, 0.5).
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 when the file is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats is a snapshot of the Go runtime counters the go.* metrics
// difference.
type goStats struct {
	allocBytes uint64
	pauseNs    uint64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs}
}

// addGoMetrics records the runtime deltas since start as go.alloc_mb
// and go.gc_pause_s, and the process's peak memory as go.peak_rss_mb.
func addGoMetrics(m metrics, start goStats) {
	end := readGoStats()
	m.set("go.alloc_mb", float64(end.allocBytes-start.allocBytes)/(1<<20), "MB")
	m.set("go.gc_pause_s", float64(end.pauseNs-start.pauseNs)/1e9, "s")
	m.set("go.peak_rss_mb", peakRSSMB(), "MB")
}
