package main

import (
	"math/rand"
	"testing"
)

func TestSummaryOrderedAndExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 10, 19, 20, 21, 999, 1000, 1001, 20000} {
		xs := make([]float64, n)
		seen := make(map[float64]bool, n)
		for i := range xs {
			// Heavy-tailed, like latencies.
			xs[i] = rng.ExpFloat64() * rng.ExpFloat64()
			seen[xs[i]] = true
		}
		s := summarize(xs)
		if s.N != n {
			t.Fatalf("n=%d: summary counts %d", n, s.N)
		}
		if !(s.P50 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("n=%d: p50 %g, p99 %g, max %g out of order", n, s.P50, s.P99, s.Max)
		}
		for _, v := range []float64{s.P50, s.P99, s.Max, s.Tail} {
			if s.TailP == 0 && v == s.Tail {
				continue
			}
			if !seen[v] {
				t.Fatalf("n=%d: %g is not a recorded sample", n, v)
			}
		}
	}
}

func TestBeyondRulePicksPercentile(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{0, 0, false},
		{19, 0, false},   // 9 beyond the median
		{20, 50, true},   // exactly 10 beyond the median
		{99, 50, true},   // 9 beyond p90
		{100, 90, true},  // 10 beyond p90
		{999, 90, true},  // 9 beyond p99
		{1000, 99, true}, // 10 beyond p99
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := highestEligible(c.n)
		if got != c.want || ok != c.wantOK {
			t.Errorf("highestEligible(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.wantOK)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
	// With ~20 submissions a run, only the median is reportable.
	s := summarize(make([]float64, 20))
	if !s.P50OK || s.P99OK {
		t.Fatalf("20 samples: p50ok=%v p99ok=%v", s.P50OK, s.P99OK)
	}
}

func TestRankBounds(t *testing.T) {
	for n := 1; n < 50; n++ {
		for _, p := range []float64{0, 1, 50, 99, 100} {
			if r := rank(n, p); r < 1 || r > n {
				t.Fatalf("rank(%d, %v) = %d", n, p, r)
			}
		}
	}
}
