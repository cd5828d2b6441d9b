package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets checks observations land in the right buckets
// under the `le` (inclusive upper bound) convention.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	obs := []time.Duration{
		500 * time.Microsecond, // <= 0.001
		time.Millisecond,       // == 0.001 → first bucket (le is inclusive)
		2 * time.Millisecond,   // <= 0.01
		50 * time.Millisecond,  // <= 0.1
		time.Second,            // +Inf
		-time.Second,           // clamped to 0 → first bucket
	}
	for _, d := range obs {
		h.Observe(d)
	}
	want := []uint64{3, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Max() != time.Second {
		t.Errorf("Max = %v, want 1s", h.Max())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond + 50*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramQuantile checks the interpolation estimate against a
// uniform fill where the true quantiles are known.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.010, 0.020, 0.030, 0.040})
	// 1000 observations uniform in (0, 40ms]: true pXX ≈ XX% of 40ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 40 * time.Microsecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 20 * time.Millisecond},
		{0.9, 36 * time.Millisecond},
		{0.99, 39600 * time.Microsecond},
	} {
		got := h.Quantile(tc.q)
		if diff := math.Abs(float64(got - tc.want)); diff > float64(time.Millisecond) {
			t.Errorf("Quantile(%g) = %v, want ≈%v", tc.q, got, tc.want)
		}
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("Quantile(1) = %v, want Max %v", got, h.Max())
	}
	if got := h.Quantile(-1); got > 10*time.Millisecond {
		t.Errorf("Quantile(-1) = %v, want within first bucket", got)
	}

	empty := NewHistogram(nil)
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

// TestHistogramConcurrent checks count/sum stay exact under concurrent
// observers (the atomic-per-bucket design has no torn updates).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const (
		goroutines = 16
		perG       = 5_000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g+1) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("Count = %d, want %d", got, goroutines*perG)
	}
	var wantSum time.Duration
	for g := 1; g <= goroutines; g++ {
		wantSum += time.Duration(g) * time.Microsecond * perG
	}
	if h.Sum() != wantSum {
		t.Errorf("Sum = %v, want %v", h.Sum(), wantSum)
	}
	if h.Max() != time.Duration(goroutines)*time.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
}

// TestHistogramOverflowBucket checks observations beyond the last
// finite bound are retained by the implicit +Inf bucket: count, sum and
// max all account for them, and the exposition's +Inf cumulative count
// equals _count (the invariant promlint enforces).
func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(5 * time.Millisecond) // in range
	h.Observe(time.Hour)            // overflow
	h.Observe(24 * 365 * time.Hour) // far overflow
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (overflow observations kept)", h.Count())
	}
	if got := h.counts[len(h.counts)-1].Load(); got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
	if h.Max() != 24*365*time.Hour {
		t.Fatalf("Max = %v, want the overflow observation", h.Max())
	}

	reg := NewRegistry()
	reg.MustRegister("psl_test_overflow_seconds", "overflow check", nil, h)
	infos, err := ValidateExpositionInfo(strings.NewReader(reg.Render()))
	if err != nil {
		t.Fatalf("exposition with overflow observations invalid: %v", err)
	}
	if len(infos) != 1 || infos[0].Type != "histogram" {
		t.Fatalf("infos = %+v", infos)
	}
}

// TestHistogramBadBounds pins the panic on unsorted bounds.
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on unsorted bounds")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestHistogramQuantileProperties: over seeded random observations the
// estimate is monotone in q, never above Max, and Quantile(1) == Max —
// including while goroutines keep observing. The first case pins the
// regression: one observation low in the 10–25µs bucket used to yield a
// p99 interpolated far above it.
func TestHistogramQuantileProperties(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	check := func(t *testing.T, h *Histogram) {
		t.Helper()
		prev := time.Duration(0)
		for _, q := range qs {
			got := h.Quantile(q)
			if got < prev {
				t.Fatalf("Quantile(%g) = %v below Quantile of a smaller q (%v)", q, got, prev)
			}
			if max := h.Max(); got > max {
				t.Fatalf("Quantile(%g) = %v above Max %v", q, got, max)
			}
			prev = got
		}
		if got, max := h.Quantile(1), h.Max(); got != max {
			t.Fatalf("Quantile(1) = %v, want Max %v", got, max)
		}
	}

	low := NewHistogram(nil)
	low.Observe(13900 * time.Nanosecond)
	check(t, low)

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(nil)
		for i, n := 0, 1+rng.Intn(500); i < n; i++ {
			// Log-uniform over 50ns..5s spans every bucket and +Inf.
			h.Observe(time.Duration(50 * math.Pow(1e8, rng.Float64())))
		}
		check(t, h)
	}

	// Under concurrent Observe each call sees its own snapshot, so only
	// per-call bounds hold; the full property set is checked once the
	// writers stop.
	h := NewHistogram(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(50 * math.Pow(1e8, rng.Float64())))
				}
			}
		}(int64(g + 1))
	}
	for i := 0; i < 2000; i++ {
		q := qs[i%len(qs)]
		if got := h.Quantile(q); got > h.Max() {
			t.Fatalf("concurrent Quantile(%g) = %v above Max %v", q, got, h.Max())
		}
	}
	close(stop)
	wg.Wait()
	check(t, h)
}
