// Package stats provides the small statistical toolkit the measurement
// pipeline needs: medians, percentiles, empirical CDFs, Pearson
// correlation and histograms. All functions are allocation-light and
// operate on float64 or int slices without external dependencies.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two central elements
// for even lengths). It returns NaN for an empty slice. The input is
// not modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// MedianInts is Median over ints.
func MedianInts(xs []int) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return Median(f)
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. NaN for empty input. The
// interpolation steps up from the lower rank and is clamped to the
// pair it interpolates, so rounding can never push the result outside
// the samples or make it decrease as p grows.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return math.Min(math.Max(s[lo]+(s[hi]-s[lo])*frac, s[lo]), s[hi])
}

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation, NaN for empty input.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, NaN when undefined (length < 2 or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// PearsonInts is Pearson over int samples.
func PearsonInts(xs, ys []int) float64 {
	fx := make([]float64, len(xs))
	fy := make([]float64, len(ys))
	for i := range xs {
		fx[i] = float64(xs[i])
	}
	for i := range ys {
		fy[i] = float64(ys[i])
	}
	return Pearson(fx, fy)
}

// Spearman returns Spearman's rank correlation coefficient: Pearson
// over the ranks, with ties receiving their average rank. NaN when
// undefined.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks converts samples to average ranks (1-based).
func ranks(xs []float64) []float64 {
	type iv struct {
		i int
		v float64
	}
	s := make([]iv, len(xs))
	for i, x := range xs {
		s[i] = iv{i, x}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].v < s[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j+1 < len(s) && s[j+1].v == s[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[s[k].i] = avg
		}
		i = j + 1
	}
	return out
}

// ECDFPoint is one step of an empirical CDF.
type ECDFPoint struct {
	// Value is the sample value.
	Value float64
	// Fraction is P(X <= Value), in (0, 1].
	Fraction float64
}

// ECDF computes the empirical CDF of the sample, one point per distinct
// value, suitable for plotting Figure 3-style distribution curves.
func ECDF(xs []float64) []ECDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []ECDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		// Collapse runs of equal values into the last step.
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, ECDFPoint{Value: s[i], Fraction: float64(i+1) / n})
	}
	return out
}

// HistogramBin is one bin of a fixed-width histogram.
type HistogramBin struct {
	// Lo and Hi bound the bin: [Lo, Hi).
	Lo, Hi float64
	// Count is the number of samples in the bin.
	Count int
}

// Histogram buckets xs into n equal-width bins spanning [min, max]. The
// final bin is closed on both ends. Returns nil for empty input or
// n <= 0.
func Histogram(xs []float64, n int) []HistogramBin {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == hi {
		return []HistogramBin{{Lo: lo, Hi: hi, Count: len(xs)}}
	}
	width := (hi - lo) / float64(n)
	bins := make([]HistogramBin, n)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = lo + float64(i+1)*width
	}
	for _, x := range xs {
		i := int((x - lo) / width)
		if i >= n {
			i = n - 1
		}
		bins[i].Count++
	}
	return bins
}

// Sum returns the sum of an int slice.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// MinMax returns the extrema of an int slice; zeros for empty input.
func MinMax(xs []int) (min, max int) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
