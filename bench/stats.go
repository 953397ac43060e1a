package main

import (
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
)

// hist is a log-linear histogram of nanosecond latencies: values below 128 ns
// are exact, above that every power of two is split into 128 buckets (< 0.8 %
// relative error). serve.hot completes millions of operations per run, so the
// samples themselves cannot be kept.
type hist struct {
	counts [(64 - histSubBits + 1) << histSubBits]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1
	return (exp-histSubBits+1)<<histSubBits | int(ns>>(exp-histSubBits))&(histSub-1)
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	exp := i>>histSubBits + histSubBits - 1
	w := uint64(1) << (exp - histSubBits)
	return float64(uint64(1)<<exp + uint64(i&(histSub-1))*w), float64(w)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating inside the
// bucket that holds the rank.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := histBounds(i)
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(len(h.counts) - 1)
	return low + width
}

// tailPercentile returns the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least ten of n samples beyond it: the highest percentile the
// sample supports.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, den := range []int{10, 100, 1000, 10000} { // p90 leaves 1 sample in 10 beyond it
		if n/den >= 10 {
			best = 1 - 1/float64(den)
		}
	}
	return best
}

// percentile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns what Python's statistics.quantiles(vals, n=4) returns
// (the exclusive method), which is what the driver computes spreads with.
// It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// peakRSSMiB is the process's VmHWM, the kernel's high-water mark of resident
// memory; every workload runs in a process of its own, so it is that
// workload's alone.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
