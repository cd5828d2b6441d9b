package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime telemetry: a runtime/metrics-fed collector registered as
// Prometheus families on every serving mux. Reading runtime/metrics is
// cheap but not free, so one sampler snapshots every tracked metric at
// most once per second (however many families a scrape renders) and the
// GaugeFunc/CounterFunc instruments read the cached snapshot.

// runtimeSampleInterval is the minimum gap between runtime/metrics
// reads; scrapes inside the window reuse the previous snapshot.
const runtimeSampleInterval = time.Second

// runtime/metrics names the collector tracks. Histogram-valued metrics
// carry their preferred name first and accepted fallbacks after, so the
// collector keeps working across toolchains that renamed them.
var (
	rmGoroutines = []string{"/sched/goroutines:goroutines"}
	rmHeapLive   = []string{"/memory/classes/heap/objects:bytes"}
	rmHeapGoal   = []string{"/gc/heap/goal:bytes"}
	rmAllocBytes = []string{"/gc/heap/allocs:bytes"}
	rmGCCycles   = []string{"/gc/cycles/total:gc-cycles"}
	rmGCPauses   = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}
	rmSchedLat   = []string{"/sched/latencies:seconds"}
)

// runtimeSampler owns the metrics.Sample slice and its refresh
// throttle.
type runtimeSampler struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample
	index   map[string]int
}

// newRuntimeSampler resolves each tracked metric against the running
// toolchain's catalogue, keeping the first supported name of each
// group. Unsupported metrics simply read as zero.
func newRuntimeSampler() *runtimeSampler {
	supported := make(map[string]bool)
	for _, d := range metrics.All() {
		supported[d.Name] = true
	}
	rs := &runtimeSampler{index: make(map[string]int)}
	track := func(names []string) {
		for _, n := range names {
			if supported[n] {
				rs.index[names[0]] = len(rs.samples)
				rs.samples = append(rs.samples, metrics.Sample{Name: n})
				return
			}
		}
	}
	for _, g := range [][]string{rmGoroutines, rmHeapLive, rmHeapGoal, rmAllocBytes, rmGCCycles, rmGCPauses, rmSchedLat} {
		track(g)
	}
	return rs
}

// refreshLocked re-reads the runtime metrics when the throttle window
// has passed. Caller holds rs.mu.
func (rs *runtimeSampler) refreshLocked() {
	if now := time.Now(); now.Sub(rs.last) >= runtimeSampleInterval {
		metrics.Read(rs.samples)
		rs.last = now
	}
}

// value reads one scalar metric (keyed by its preferred name) from the
// cached snapshot, 0 when the toolchain does not expose it.
func (rs *runtimeSampler) value(key string) float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	i, ok := rs.index[key]
	if !ok {
		return 0
	}
	rs.refreshLocked()
	switch v := rs.samples[i].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// quantile reads the q-quantile of one histogram-valued metric from the
// cached snapshot, 0 when absent or empty. q >= 1 returns the upper
// edge of the highest occupied bucket (the histogram's resolution of
// "max").
func (rs *runtimeSampler) quantile(key string, q float64) float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	i, ok := rs.index[key]
	if !ok {
		return 0
	}
	rs.refreshLocked()
	v := rs.samples[i].Value
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return float64HistQuantile(v.Float64Histogram(), q)
}

// float64HistQuantile estimates a quantile of a runtime
// Float64Histogram with bucketQuantile, clamping the ±Inf boundary
// buckets to their finite edge and the estimate to the upper edge of
// the highest occupied bucket (the histogram's resolution of "max").
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	edges := func(i int) (lo, hi float64) {
		lo, hi = h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo, hi
	}
	top := 0.0
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			_, top = edges(i)
			break
		}
	}
	return min(bucketQuantile(h.Counts, q, edges), top)
}

// RegisterRuntimeMetrics attaches ~8 Go-runtime telemetry families fed
// by one shared throttled runtime/metrics sampler:
//
//	psl_runtime_goroutines             live goroutines
//	psl_runtime_gomaxprocs             scheduler parallelism
//	psl_runtime_heap_live_bytes        live heap objects
//	psl_runtime_heap_goal_bytes        GC heap goal
//	psl_runtime_heap_alloc_bytes_total cumulative heap allocation
//	psl_runtime_gc_cycles_total        completed GC cycles
//	psl_runtime_gc_pause_seconds{q}    GC stop-the-world pause quantiles
//	psl_runtime_sched_latency_seconds{q} goroutine scheduling latency quantiles
func RegisterRuntimeMetrics(r *Registry) {
	rs := newRuntimeSampler()
	r.MustRegister("psl_runtime_goroutines", "Live goroutines.", nil,
		GaugeFunc(func() float64 { return rs.value(rmGoroutines[0]) }))
	r.MustRegister("psl_runtime_gomaxprocs", "GOMAXPROCS scheduler parallelism.", nil,
		GaugeFunc(func() float64 { return float64(runtime.GOMAXPROCS(0)) }))
	r.MustRegister("psl_runtime_heap_live_bytes", "Bytes of live heap objects.", nil,
		GaugeFunc(func() float64 { return rs.value(rmHeapLive[0]) }))
	r.MustRegister("psl_runtime_heap_goal_bytes", "Garbage collector heap-size goal.", nil,
		GaugeFunc(func() float64 { return rs.value(rmHeapGoal[0]) }))
	r.MustRegister("psl_runtime_heap_alloc_bytes_total", "Cumulative bytes allocated on the heap.", nil,
		CounterFunc(func() float64 { return rs.value(rmAllocBytes[0]) }))
	r.MustRegister("psl_runtime_gc_cycles_total", "Completed garbage collection cycles.", nil,
		CounterFunc(func() float64 { return rs.value(rmGCCycles[0]) }))
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}, {"max", 1}} {
		q := q
		r.MustRegister("psl_runtime_gc_pause_seconds", "Garbage collector stop-the-world pause quantiles since process start.",
			Labels{{"q", q.label}}, GaugeFunc(func() float64 { return rs.quantile(rmGCPauses[0], q.v) }))
		r.MustRegister("psl_runtime_sched_latency_seconds", "Goroutine runnable-to-running scheduling latency quantiles since process start.",
			Labels{{"q", q.label}}, GaugeFunc(func() float64 { return rs.quantile(rmSchedLat[0], q.v) }))
	}
}
