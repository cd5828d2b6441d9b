// Command perfbench is the repository's benchmark. It drives one of
// four seeded workloads end to end:
//
//	lookup-hot          GET /v1/lookup over loopback, Zipf hosts, warm cache
//	batch-cold          binary POST /v1/batch over loopback, no host repeats
//	publish-under-load  paced write-path submissions, replica propagation,
//	                    lookups against the edge meanwhile
//	paper-pipeline      the in-process equivalent of `pslharm -scale 4 all`
//
// The serving workloads run against the reference corpus (pslharm's
// default seed); -seed draws the request stream and the submission
// sequence from it. Load comes from this one process, closed loop: each
// connection sends its next request when the reply is in.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// replays the same inputs with spans around each layer's public calls,
// reports the per-layer metrics and the tracing overhead, and writes
// the spans under -spans-dir. Every answer is checked against the
// library (psl.List) and counted as attempted and, when wrong, failed.
//
// Output is two JSON lines: a report (environment, sample counts behind
// each percentile, distributions, notes, first failures, and the
// workload's own metrics), then the result {"correct", "attempted",
// "failed", "metrics"}, whose metrics are the ones every workload
// reports (endToEnd or perLayer below).
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

// window is the measured duration.
func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envInfo records where and on what a result was measured.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func environment(c config) envInfo {
	e := envInfo{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Revision: "unknown", Modified: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value
			}
		}
	}
	return e
}

// runCtx is one run's configuration and everything it reports.
type runCtx struct {
	cfg config
	env envInfo
	tr  *tracer // nil when untraced

	mu      sync.Mutex
	metrics map[string]metric
	samples map[string]sampleInfo
	dists   map[string]summary
	notes   map[string]any
	fails   []string

	attempted, failed atomic.Int64
}

func (r *runCtx) set(name string, v float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

// sampleInfo is the sample count behind a reported percentile.
type sampleInfo struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
}

// setPct reports percentile p (50 or 99) of s as metric name, with its
// sample count.
func (r *runCtx) setPct(name, unit string, s summary, p float64) {
	v := s.P50
	if p == 99 {
		v = s.P99
	}
	r.set(name, v, unit)
	r.mu.Lock()
	r.samples[name] = sampleInfo{N: s.N, Percentile: p, Beyond: beyond(s.N, p)}
	r.mu.Unlock()
}

func (r *runCtx) dist(name string, s summary) {
	r.mu.Lock()
	r.dists[name] = s
	r.mu.Unlock()
}

func (r *runCtx) note(name string, v any) {
	r.mu.Lock()
	r.notes[name] = v
	r.mu.Unlock()
}

// op counts one attempted operation, failed unless ok; what describes
// a failure (the first few are kept for the report).
func (r *runCtx) op(ok bool, what func() string) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		r.mu.Lock()
		if len(r.fails) < 8 {
			r.fails = append(r.fails, what())
		}
		r.mu.Unlock()
	}
	return ok
}

// metricSpec is one reported metric: name and unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics of the result line, the ones
// BENCHMARK.json declares. Every workload reports all of them, each
// from its own operation:
//
//	                    throughput_per_s   latency_p50_ms
//	lookup-hot          lookups            one GET /v1/lookup
//	batch-cold          batch rows         one 256-row POST /v1/batch
//	publish-under-load  edge lookups       one submission, from the
//	                                       Submit call to the edge at
//	                                       its seq
//	paper-pipeline      archive requests   one pipeline iteration
//	                    classified
//
// The per-layer ones are the layers every workload crosses: the
// normalize calls and Matcher.Match on the workload's hosts (for
// paper-pipeline its snapshot's hosts under the newest list), the
// runtime, and the tracing itself.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"}, {"peak_rss_mb", "MB"},
		{"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
	}
	perLayer = []metricSpec{
		{"domain.normalize_ns", "ns"}, {"psl.match_ns", "ns"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"runtime.heap_inuse_mb", "MB"}, {"trace.overhead_pct", "%"},
	}
)

// workloadEndToEnd and workloadPerLayer are each workload's own
// metrics beyond the declared ones. They go into the report line.
var workloadEndToEnd = map[string][]metricSpec{
	"lookup-hot": lookupEndToEnd,
	"batch-cold": {
		{"batch_rows_per_s", "1/s"}, {"batch_p50_ms", "ms"}, {"batch_p99_ms", "ms"},
	},
	"publish-under-load": append([]metricSpec{
		{"submit_p50_ms", "ms"}, {"propagate_p50_ms", "ms"},
	}, lookupEndToEnd...),
	"paper-pipeline": {{"pipeline_s", "s"}},
}

var lookupEndToEnd = []metricSpec{
	{"lookup_rps", "1/s"}, {"lookup_p50_us", "us"}, {"lookup_p99_us", "us"},
}

var workloadPerLayer = map[string][]metricSpec{
	"lookup-hot": append([]metricSpec{
		{"serve.wire_us", "us"}, {"serve.handler_us", "us"},
		{"serve.lookup_hit_ns", "ns"}, {"serve.lookup_miss_ns", "ns"},
		{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_bytes", "B"},
	}, resolveLadder...),
	"batch-cold": append([]metricSpec{
		{"serve.batch_lookup_ns_per_row", "ns"}, {"serve.batch_codec_ns_per_row", "ns"},
		{"serve.batch_wire_ns_per_row", "ns"},
	}, resolveLadder...),
	"publish-under-load": append([]metricSpec{
		{"serve.lookup_hit_ns", "ns"}, {"serve.lookup_miss_ns", "ns"},
		{"serve.swap_ms", "ms"}, {"serve.installs_blob", "count"}, {"serve.installs_compile", "count"},
		{"submit.lint_ms", "ms"}, {"submit.semantic_ms", "ms"}, {"submit.authorization_ms", "ms"},
		{"submit.risk_ms", "ms"}, {"submit.publish_ms", "ms"}, {"submit.risk_flip_ratio", "ratio"},
		{"dist.poll_ms", "ms"}, {"dist.bytes_per_publish", "B"}, {"dist.blob_hit_ratio", "ratio"},
		{"dist.fetched_ms", "ms"}, {"dist.verified_ms", "ms"}, {"dist.installed_ms", "ms"},
		{"serve.served_first_ms", "ms"},
	}, resolveLadder...),
	"paper-pipeline": pipelineLayer(),
}

// resolveLadder is the in-process bottom of the lookup ladder, less
// the declared normalize and match rungs.
var resolveLadder = []metricSpec{{"serve.resolve_ns", "ns"}, {"serve.answer_build_ns", "ns"}}

var workloads = map[string]func(*runCtx) error{
	"lookup-hot":         runLookupHot,
	"batch-cold":         runBatchCold,
	"publish-under-load": runPublishUnderLoad,
	"paper-pipeline":     runPaperPipeline,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c     config
		trace int
	)
	fs.StringVar(&c.workload, "workload", "", "workload: lookup-hot, batch-cold, publish-under-load or paper-pipeline")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer run")
	fs.StringVar(&c.spansDir, "spans-dir", ".bench_build/spans", "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %v, -seconds >= 1, -trace 0|1\n", sortedKeys(workloads))
		return 2
	}
	c.trace = trace == 1
	rc := &runCtx{
		cfg: c, env: environment(c),
		metrics: map[string]metric{}, samples: map[string]sampleInfo{},
		dists: map[string]summary{}, notes: map[string]any{},
	}
	if c.trace {
		rc.tr = newTracer()
	}
	if err := fn(rc); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if rc.tr != nil {
		rec, kept, err := rc.tr.write(c.spansDir, c.workload, rc.env)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rc.note("spans", map[string]any{"file": c.spansDir + "/" + c.workload + ".jsonl", "recorded": rec, "kept": kept})
	}
	declared, own := endToEnd, workloadEndToEnd[c.workload]
	if c.trace {
		declared, own = perLayer, workloadPerLayer[c.workload]
	}
	if err := rc.check(append(append([]metricSpec(nil), declared...), own...)); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	res := result{
		Attempted: rc.attempted.Load(),
		Failed:    rc.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, s := range declared {
		res.Metrics[s.name] = rc.metrics[s.name]
	}
	ownMetrics := map[string]metric{}
	for _, s := range own {
		ownMetrics[s.name] = rc.metrics[s.name]
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rep := map[string]any{
		"env": rc.env, "samples": rc.samples, "distributions": rc.dists,
		"notes": rc.notes, "failures": rc.fails, "workload_metrics": ownMetrics,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// check verifies the run reported exactly the specified metrics, each
// a finite number with its unit.
func (r *runCtx) check(specs []metricSpec) error {
	var errs []error
	want := map[string]bool{}
	for _, s := range specs {
		want[s.name] = true
		m, ok := r.metrics[s.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not measured", s.name))
		case m.Unit != s.unit:
			errs = append(errs, fmt.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", s.name, m.Value))
		}
	}
	var extra []string
	for name := range r.metrics {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		errs = append(errs, fmt.Errorf("metric %s is not declared for this run", name))
	}
	return errors.Join(errs...)
}

// ops counts n attempted operations of which failed failed.
func (r *runCtx) ops(n, failed int64, what func() string) {
	r.attempted.Add(n)
	if failed > 0 {
		r.failed.Add(failed)
		r.mu.Lock()
		if len(r.fails) < 8 {
			r.fails = append(r.fails, what())
		}
		r.mu.Unlock()
	}
}
