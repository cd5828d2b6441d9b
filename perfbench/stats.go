package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer samples is one
// outlier away from a different number.
const minBeyond = 10

// ladder lists the percentiles the benchmark may report, highest first.
var ladder = []float64{99.99, 99.9, 99, 90, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples: the smallest sample with at least p% of the samples
// at or below it. The epsilon keeps float error in p/100 (99.9/100 is
// not exact) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// eligible reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func eligible(n int, p float64) bool { return n > 0 && beyond(n, p) >= minBeyond }

// highestEligible is the highest ladder percentile with at least
// minBeyond samples beyond it; ok is false when even the median has
// too few.
func highestEligible(n int) (p float64, ok bool) {
	for _, q := range ladder {
		if eligible(n, q) {
			return q, true
		}
	}
	return 0, false
}

// summary is an exact-sample distribution summary. Every figure is a
// recorded sample, never an interpolation, so p50 <= p99 <= Max holds
// by construction.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
	// P99OK and P50OK report whether those percentiles have minBeyond
	// samples beyond them.
	P50OK bool `json:"p50_ok"`
	P99OK bool `json:"p99_ok"`
}

// scaled is s in another unit: every figure times f.
func (s summary) scaled(f float64) summary {
	s.P50, s.P99, s.Max, s.Mean, s.Tail = s.P50*f, s.P99*f, s.Max*f, s.Mean*f, s.Tail*f
	return s
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	at := func(p float64) float64 { return xs[rank(len(xs), p)-1] }
	s.Mean = mean(xs)
	s.P50, s.P99, s.Max = at(50), at(99), xs[len(xs)-1]
	s.P50OK, s.P99OK = eligible(len(xs), 50), eligible(len(xs), 99)
	if p, ok := highestEligible(len(xs)); ok {
		s.TailP, s.Tail = p, at(p)
	}
	return s
}

// median is the nearest-rank median of xs (sorted in place); 0 for
// an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), 50)-1]
}

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
