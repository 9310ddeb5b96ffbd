package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailPct is the percentile op_tail_ms reports on every workload. Over ten
// seeds on a 2-vCPU VM, serve-ingest's p99 /ingest latency spread (the
// quartile distance over the median) 0.25, as far as any bound may reach,
// and its p90 0.07.
const tailPct = 90

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rankOf is the 0-based nearest-rank index of the p-th percentile of n
// sorted samples.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100)) - 1
}

// enoughFor reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile (0 < p < 100).
func enoughFor(n int, p float64) bool {
	return n-1-rankOf(n, p) >= minBeyond
}

// percentile returns the p-th percentile by the nearest-rank rule, or an
// error when the sample is too small for minBeyond samples to lie beyond
// it. The median is held to the same rule.
func (s samples) percentile(p float64) (float64, error) {
	if !enoughFor(len(s), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", p, minBeyond, len(s))
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rankOf(len(sorted), p)], nil
}

// median returns the middle value (mean of the two middle values for an
// even count); it is used for per-layer figures, where the percentile
// sample rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMiB reads VmHWM, the peak resident set size, of a process from
// /proc ("self" for the benchmark itself).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
