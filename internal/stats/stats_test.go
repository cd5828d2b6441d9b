package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.xs); !almost(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestMedianInts(t *testing.T) {
	if got := MedianInts([]int{825, 871, 915}); !almost(got, 871) {
		t.Errorf("MedianInts = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 50); !almost(got, 5) {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 0); !almost(got, 0) {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); !almost(got, 10) {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 25); !almost(got, 2.5) {
		t.Errorf("P25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5) {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive and negative correlation.
	xs := []float64{1, 2, 3, 4}
	if got := Pearson(xs, []float64{2, 4, 6, 8}); !almost(got, 1) {
		t.Errorf("Pearson perfect = %v", got)
	}
	if got := Pearson(xs, []float64{8, 6, 4, 2}); !almost(got, -1) {
		t.Errorf("Pearson inverse = %v", got)
	}
	// Undefined cases.
	if !math.IsNaN(Pearson(xs, []float64{1, 1, 1, 1})) {
		t.Error("zero variance should give NaN")
	}
	if !math.IsNaN(Pearson(xs, xs[:2])) {
		t.Error("length mismatch should give NaN")
	}
}

func TestPearsonBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		ys := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return math.IsNaN(r) || (r >= -1.0000001 && r <= 1.0000001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpearman(t *testing.T) {
	// Monotone but non-linear relation: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if got := Spearman(xs, ys); !almost(got, 1) {
		t.Errorf("Spearman monotone = %v, want 1", got)
	}
	if got := Pearson(xs, ys); got >= 1 {
		t.Errorf("Pearson of cubic should be < 1, got %v", got)
	}
	// Reversed order: -1.
	if got := Spearman(xs, []float64{5, 4, 3, 2, 1}); !almost(got, -1) {
		t.Errorf("Spearman reversed = %v", got)
	}
	// Ties get average ranks and stay defined.
	if got := Spearman([]float64{1, 2, 2, 3}, []float64{10, 20, 20, 30}); !almost(got, 1) {
		t.Errorf("Spearman with ties = %v", got)
	}
	if !math.IsNaN(Spearman(xs, xs[:2])) {
		t.Error("length mismatch should be NaN")
	}
}

func TestRanksAverageTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]float64{1, 2, 2, 3})
	want := []ECDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("ECDF = %v", pts)
	}
	for i := range want {
		if !almost(pts[i].Value, want[i].Value) || !almost(pts[i].Fraction, want[i].Fraction) {
			t.Errorf("ECDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		pts := ECDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		// Monotone values and fractions, ending at 1.
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Fraction <= pts[i-1].Fraction {
				return false
			}
		}
		return almost(pts[len(pts)-1].Fraction, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if len(bins) != 5 {
		t.Fatalf("bins = %v", bins)
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 10 {
		t.Errorf("histogram loses samples: %d", total)
	}
	// Constant input collapses to one bin.
	one := Histogram([]float64{5, 5, 5}, 4)
	if len(one) != 1 || one[0].Count != 3 {
		t.Errorf("constant histogram = %v", one)
	}
	if Histogram(nil, 5) != nil || Histogram([]float64{1}, 0) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

func TestHistogramConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		bins := Histogram(xs, 1+rng.Intn(20))
		total := 0
		for _, b := range bins {
			total += b.Count
		}
		if total != n {
			t.Fatalf("trial %d: mass %d != %d", trial, total, n)
		}
	}
}

func TestSumMinMax(t *testing.T) {
	if Sum([]int{1, 2, 3}) != 6 {
		t.Error("Sum broken")
	}
	min, max := MinMax([]int{5, -2, 9, 0})
	if min != -2 || max != 9 {
		t.Errorf("MinMax = %d,%d", min, max)
	}
	min, max = MinMax(nil)
	if min != 0 || max != 0 {
		t.Error("MinMax(nil) should be zeros")
	}
}

func TestPercentileMatchesSortedMedian(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		// P0 and P100 are the extrema.
		return almost(Percentile(xs, 0), s[0]) && almost(Percentile(xs, 100), s[len(s)-1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentileProperties checks the exact-sample quantile over seeded
// random sets: monotone in p, bounded by the sample extrema, P(0) and
// P(100) equal to them, Median equal to P(50), and the input untouched.
func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for set := 0; set < 200; set++ {
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			// Signed values over ten decades, a third of them repeating
			// their neighbour: equal adjacent ranks are where a naive
			// a*(1-f)+b*f interpolation rounds outside [a, b].
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
			if i > 0 && rng.Intn(3) == 0 {
				xs[i] = xs[i-1]
			}
		}
		orig := append([]float64(nil), xs...)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		min, max := s[0], s[len(s)-1]

		if got := Percentile(xs, 0); got != min {
			t.Fatalf("set %d: P(0) = %v, min %v", set, got, min)
		}
		if got := Percentile(xs, 100); got != max {
			t.Fatalf("set %d: P(100) = %v, max %v", set, got, max)
		}
		if m, p := Median(xs), Percentile(xs, 50); m != p {
			t.Fatalf("set %d: Median %v != P(50) %v", set, m, p)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 0.5 {
			q := Percentile(xs, p)
			if q < min || q > max {
				t.Fatalf("set %d: P(%v) = %v outside [%v, %v]", set, p, q, min, max)
			}
			if q < prev {
				t.Fatalf("set %d: P(%v) = %v below the previous quantile %v", set, p, q, prev)
			}
			prev = q
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("set %d: input mutated at %d: %v -> %v", set, i, orig[i], xs[i])
			}
		}
	}
}
