package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/domain"
	"repro/internal/idna"
	"repro/internal/psl"
	"repro/internal/serve"
)

// lookupConns is the number of lookup-hot connections (one per CPU of
// the reference host; every caller waits for its reply).
const lookupConns = 2

// setupReps is how many times a run performs the program's set-up;
// setup_s is their median and the last one is measured.
const setupReps = 31

// lookupPaths are the request paths of every pool host.
func lookupPaths(hosts []string) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = serve.LookupPath + "?host=" + url.QueryEscape(h)
	}
	return out
}

// lookupLoad drives closed-loop GET /v1/lookup traffic: each
// connection sends its next request when the previous reply is in.
type lookupLoad struct {
	rc    *runCtx
	base  string
	paths []string
	hosts []string
	// at is connection c's i-th request, as a pool index.
	at    func(c, i int) int32
	conns int
	// expect is the answer digest pool host idx must have at version
	// seq; ok=false when seq is not a version the answer may name.
	expect func(idx int32, seq int) (uint64, bool)
}

// lookupRun is one socket phase's outcome.
type lookupRun struct {
	latUs   []float64 // per request, microseconds
	ends    []float64 // per request, completion time in seconds since start
	counts  []int     // requests per connection
	elapsed time.Duration
}

func (r lookupRun) total() int {
	n := 0
	for _, c := range r.counts {
		n += c
	}
	return n
}

// run drives the load for dur, or, when limit is non-nil, replays
// exactly limit[c] requests on connection c. With tr set, each request
// records a client span whose id travels in a header to the server's
// span.
func (ld *lookupLoad) run(dur time.Duration, limit []int, tr *tracer) lookupRun {
	var stop atomic.Bool
	if limit == nil {
		t := time.AfterFunc(dur, func() { stop.Store(true) })
		defer t.Stop()
	}
	return ld.runUntil(&stop, limit, tr)
}

// runUntil is run stopping when stop is set (limit nil).
func (ld *lookupLoad) runUntil(stop *atomic.Bool, limit []int, tr *tracer) lookupRun {
	lats := make([][]float64, ld.conns)
	ends := make([][]float64, ld.conns)
	counts := make([]int, ld.conns)
	start := time.Now()
	parallel(ld.conns, func(c int) {
		var (
			buf  bytes.Buffer
			w    wireAnswer
			ring *spanRing
			hdrs []header
			end  []float64
		)
		conn := newRawConn(ld.base)
		defer conn.close()
		if tr != nil {
			ring = tr.ring()
		}
		lat := make([]float64, 0, 1<<16)
		for i := 0; ; i++ {
			if limit != nil {
				if i >= limit[c] {
					break
				}
			} else if stop.Load() {
				break
			}
			idx := ld.at(c, i)
			var sid uint64
			reqID := int64(c)<<40 | int64(i)
			if ring != nil {
				sid = tr.id()
				hdrs = append(hdrs[:0], header{hdrSpan, strconv.FormatUint(sid, 10)}, header{hdrReq, strconv.FormatInt(reqID, 10)})
			}
			t0 := time.Now()
			status, err := conn.do(http.MethodGet, ld.paths[idx], "", nil, hdrs, &buf)
			t1 := time.Now()
			if ring != nil {
				ring.add(span{ID: sid, Name: "client.lookup", Req: reqID, Start: tr.at(t0), End: tr.at(t1)})
			}
			lat = append(lat, float64(t1.Sub(t0))/1e3)
			end = append(end, t1.Sub(start).Seconds())
			ld.rc.op(err == nil && status == http.StatusOK && ld.ok(idx, buf.Bytes(), &w), func() string {
				return fmt.Sprintf("lookup %q: status %d err %v body %.200s", ld.hosts[idx], status, err, buf.String())
			})
		}
		lats[c], ends[c], counts[c] = lat, end, len(lat)
	})
	out := lookupRun{counts: counts, elapsed: time.Since(start)}
	for c := range lats {
		out.latUs = append(out.latUs, lats[c]...)
		out.ends = append(out.ends, ends[c]...)
	}
	return out
}

// ok checks one JSON answer body.
func (ld *lookupLoad) ok(idx int32, body []byte, w *wireAnswer) bool {
	if scanAnswer(body, w) != nil || w.hasErr {
		return false
	}
	want, valid := ld.expect(idx, w.seq)
	return valid && w.digest() == want
}

// Trace headers carrying the client span to the server-side recorder.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// tracedHandler records a server span around h for every request that
// carries a client span in its headers, parented to that span.
func tracedHandler(tr *tracer, name string, h http.Handler) http.Handler {
	ring := tr.ring()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sid := r.Header.Get(hdrSpan)
		if sid == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		parent, _ := strconv.ParseUint(sid, 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		ring.record(tr, parent, name, req, t0, t1)
	})
}

// setupLookupService builds the head-of-history service and its
// loopback server setupReps times, keeping the last.
func setupLookupService(c *corpus) (*serve.Service, *server, float64, error) {
	var (
		svc *serve.Service
		srv *server
		xs  []float64
	)
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		svc = serve.NewFromHistory(c.h, c.headSeq, serve.Options{})
		var err error
		if srv, err = startServer(svc); err != nil {
			return nil, nil, 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return svc, srv, median(xs), nil
}

// warm runs the stream's cache-warming lookups in process.
func warm(svc *serve.Service, hosts []string, stream *lookupStream) error {
	for _, idx := range stream.warm {
		if _, err := svc.Lookup(hosts[idx]); err != nil {
			return fmt.Errorf("warming: %w", err)
		}
	}
	return nil
}

// freshHeap drops input-generation garbage so the peak RSS reflects
// what the measured phase holds.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runLookupHot(rc *runCtx) error {
	c := loadCorpus(1)
	stream := newLookupStream(len(c.hosts), rc.cfg.seed)
	exp, err := expectedAll(c.head, c.hosts)
	if err != nil {
		return err
	}
	paths := lookupPaths(c.hosts)
	rc.note("pool_hosts", len(c.hosts))
	rc.note("head_seq", c.headSeq)

	freshHeap()
	rss := startRSS()
	svc, srv, setupS, err := setupLookupService(c)
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := warm(svc, c.hosts, stream); err != nil {
		return err
	}
	fresh := func() (*serve.Service, error) {
		s := serve.NewFromHistory(c.h, c.headSeq, serve.Options{})
		return s, warm(s, c.hosts, stream)
	}
	ld := &lookupLoad{
		rc: rc, base: srv.URL, paths: paths, hosts: c.hosts, conns: lookupConns,
		at:     func(c, i int) int32 { return stream.at(c, lookupConns, i) },
		expect: func(idx int32, seq int) (uint64, bool) { return exp[idx], seq == c.headSeq },
	}
	hits0, miss0, _ := svc.CacheStats()
	gc0 := gcNow()
	if !rc.cfg.trace {
		r := ld.run(rc.cfg.window(), nil, nil)
		peak := rss.end()
		hits, miss, _ := svc.CacheStats()
		rc.note("cache_hit_ratio", float64(hits-hits0)/float64(hits-hits0+miss-miss0))
		s, err := reportLookup(rc, "lookup", r, setupS, peak)
		if err != nil {
			return err
		}
		rc.setPct("latency_p50_ms", "ms", s.scaled(1e-3), 50)
		return nil
	}
	rss.end()

	// Traced run: the workload's socket phase untraced, then the same
	// requests traced on a fresh, equally warmed service (the
	// difference is the tracing overhead), then the same requests down
	// the ladder.
	r1 := ld.run(rc.cfg.window()/4, nil, nil)
	cycles, pause := gc0.since()
	rc.set("runtime.heap_inuse_mb", heapMB(), "MB")
	hits, miss, _ := svc.CacheStats()
	cb, err := cacheBytes(svc)
	if err != nil {
		return err
	}
	tsvc, err := fresh()
	if err != nil {
		return err
	}
	tsrv, err := startServer(tracedHandler(rc.tr, "serve.handler", tsvc))
	if err != nil {
		return err
	}
	ld.base = tsrv.URL
	r2 := ld.run(0, r1.counts, rc.tr)
	if err := tsrv.stop(); err != nil {
		return err
	}
	s1, s2 := summarize(r1.latUs), summarize(r2.latUs)
	rc.dist("untraced.lookup_us", s1)
	rc.dist("traced.lookup_us", s2)

	var seq []int32
	for conn, n := range r1.counts {
		for i := 0; i < n; i++ {
			seq = append(seq, stream.at(conn, lookupConns, i))
		}
	}
	lad, err := lookupLadder(rc, ld, fresh, c, exp, seq)
	if err != nil {
		return err
	}
	rc.set("serve.wire_us", lad.SocketUs-lad.ServeHTTPUs, "us")
	rc.set("serve.handler_us", lad.ServeHTTPUs-lad.LookupNs/1e3, "us")
	rc.set("serve.lookup_hit_ns", lad.HitNs, "ns")
	rc.set("serve.lookup_miss_ns", lad.MissNs, "ns")
	rc.set("serve.cache_hit_ratio", float64(hits-hits0)/float64(hits-hits0+miss-miss0), "ratio")
	rc.set("serve.cache_bytes", cb, "B")
	lad.report(rc)
	rc.set("runtime.gc_cycles", cycles, "count")
	rc.set("runtime.gc_pause_ms", pause, "ms")
	rc.set("trace.overhead_pct", 100*(s2.P50-s1.P50)/s1.P50, "%")
	rc.note("ladder", lad)
	return nil
}

// reportLookup sets the end-to-end lookup metrics of a socket phase,
// throughput_per_s among them, and returns its latency summary
// (microseconds).
func reportLookup(rc *runCtx, prefix string, r lookupRun, setupS, peakMB float64) (summary, error) {
	s := summarize(r.latUs)
	rc.dist(prefix+"_us", s)
	perSec := make([]int, int(r.elapsed.Seconds())+1)
	for _, e := range r.ends {
		perSec[int(e)]++
	}
	rc.note(prefix+"_per_second", perSec)
	if !s.P99OK {
		return s, fmt.Errorf("%d lookups are too few for a p99 with %d samples beyond it", s.N, minBeyond)
	}
	rc.set("lookup_rps", float64(r.total())/r.elapsed.Seconds(), "1/s")
	rc.set("throughput_per_s", float64(r.total())/r.elapsed.Seconds(), "1/s")
	rc.setPct("lookup_p50_us", "us", s, 50)
	rc.setPct("lookup_p99_us", "us", s, 99)
	rc.set("setup_s", setupS, "s")
	rc.set("peak_rss_mb", peakMB, "MB")
	return s, nil
}

// ladderResult holds the per-layer figures of one ladder replay. The
// ladder replays its inputs on one connection or goroutine, so each
// rung runs uncontended and one rung minus the next is the cost of the
// layer between them.
type ladderResult struct {
	Inputs      int     `json:"inputs"`
	SocketUs    float64 `json:"socket_us,omitempty"`
	ServeHTTPUs float64 `json:"servehttp_us,omitempty"`
	LookupNs    float64 `json:"lookup_ns,omitempty"`
	HitNs       float64 `json:"lookup_hit_ns,omitempty"`
	MissNs      float64 `json:"lookup_miss_ns,omitempty"`
	Hits        int     `json:"hits,omitempty"`
	Misses      int     `json:"misses,omitempty"`
	ResolveNs   float64 `json:"resolve_ns"`
	NormalizeNs float64 `json:"normalize_ns"`
	MatchNs     float64 `json:"match_ns"`
	ClockNs     float64 `json:"clock_pair_ns,omitempty"`
}

// report sets the bottom-of-ladder metrics.
func (l *ladderResult) report(rc *runCtx) {
	rc.set("serve.resolve_ns", l.ResolveNs, "ns")
	rc.set("domain.normalize_ns", l.NormalizeNs, "ns")
	rc.set("psl.match_ns", l.MatchNs, "ns")
	rc.set("serve.answer_build_ns", l.ResolveNs-l.NormalizeNs-l.MatchNs, "ns")
}

// rungSpan records a ladder rung as one span under the ladder's root.
func rungSpan(tr *tracer, root uint64, name string, fn func(ring *spanRing, parent uint64)) {
	ring := tr.ring()
	id := tr.id()
	t0 := time.Now()
	fn(ring, id)
	ring.add(span{ID: id, Parent: root, Name: name, Req: -1, Start: tr.at(t0), End: tr.at(time.Now())})
}

// lookupLadder replays the request sequence seq down the ladder: the
// loopback socket on one connection, Service.ServeHTTP through a
// recorder, Service.Lookup (each on a fresh service warmed like the
// workload's, so each sees the same cache state), then
// Snapshot.Resolve, the normalize calls and Matcher.Match.
func lookupLadder(rc *runCtx, ld *lookupLoad, fresh func() (*serve.Service, error), c *corpus, exp []uint64, seq []int32) (*ladderResult, error) {
	tr := rc.tr
	root := tr.id()
	hosts := make([]string, len(seq))
	for i, idx := range seq {
		hosts[i] = c.hosts[idx]
	}
	clk := clockCost()
	lad := &ladderResult{Inputs: len(seq), ClockNs: float64(clk)}
	n := float64(len(seq))

	// Rung 1: the loopback socket, one connection.
	svc, err := fresh()
	if err != nil {
		return nil, err
	}
	srv, err := startServer(svc)
	if err != nil {
		return nil, err
	}
	one := *ld
	one.base, one.conns = srv.URL, 1
	one.at = func(_, i int) int32 { return seq[i] }
	var r lookupRun
	rungSpan(tr, root, "ladder.socket", func(*spanRing, uint64) { r = one.run(0, []int{len(seq)}, nil) })
	if err := srv.stop(); err != nil {
		return nil, err
	}
	lad.SocketUs = mean(r.latUs) - float64(clk)/1e3

	// Rung 2: ServeHTTP through a recorder, timed per request.
	if svc, err = fresh(); err != nil {
		return nil, err
	}
	var httpNs time.Duration
	rungSpan(tr, root, "ladder.servehttp", func(ring *spanRing, parent uint64) {
		var w wireAnswer
		for i, h := range hosts {
			req := httptest.NewRequest(http.MethodGet, ld.paths[seq[i]], nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			svc.ServeHTTP(rec, req)
			t1 := time.Now()
			httpNs += t1.Sub(t0)
			ring.record(tr, parent, "serve.ServeHTTP", int64(i), t0, t1)
			ok := rec.Code == http.StatusOK && scanAnswer(rec.Body.Bytes(), &w) == nil && !w.hasErr &&
				w.seq == c.headSeq && w.digest() == exp[seq[i]]
			rc.op(ok, func() string { return fmt.Sprintf("ServeHTTP %q: %d %.200s", h, rec.Code, rec.Body.String()) })
		}
	})
	lad.ServeHTTPUs = (float64(httpNs)/n - float64(clk)) / 1e3

	// Rung 3: Service.Lookup.
	if svc, err = fresh(); err != nil {
		return nil, err
	}
	var blocks []lookupBlock
	rungSpan(tr, root, "ladder.lookup", func(ring *spanRing, parent uint64) {
		blocks = timeLookups(rc, svc, hosts, clk, func(i int) (uint64, bool) { return exp[seq[i]], true },
			c.headSeq, c.headSeq, tr, ring, parent)
	})
	if err := lad.fitLookup(blocks); err != nil {
		return nil, err
	}
	snap := svc.Current()
	if err := bottomLadder(rc, snap, snap.Matcher, hosts, lad, func(i int) uint64 { return exp[seq[i]] }); err != nil {
		return nil, err
	}
	return lad, nil
}

// lookupBlock is the time of lookupBlockLen consecutive Service.Lookup
// calls and how many of them the cache answered.
type lookupBlock struct{ hits, misses, ns float64 }

// lookupBlockLen is the number of calls per timed block. A clock read
// costs about as much as a cached lookup on the reference host, so the
// calls are timed in blocks and the per-call hit and miss costs fitted.
const lookupBlockLen = 32

// timeLookups calls Service.Lookup on every input in timed blocks and
// checks each answer against want(i) for seq in [seqLo, seqHi].
func timeLookups(rc *runCtx, svc *serve.Service, inputs []string, clk time.Duration, want func(i int) (uint64, bool),
	seqLo, seqHi int, tr *tracer, ring *spanRing, parent uint64) []lookupBlock {
	answers := make([]serve.Answer, lookupBlockLen)
	errs := make([]error, lookupBlockLen)
	var out []lookupBlock
	for lo := 0; lo < len(inputs); lo += lookupBlockLen {
		hi := min(lo+lookupBlockLen, len(inputs))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			answers[i-lo], errs[i-lo] = svc.Lookup(inputs[i])
		}
		t1 := time.Now()
		b := lookupBlock{ns: float64(t1.Sub(t0) - clk)}
		ring.record(tr, parent, "serve.Lookup.block", int64(lo), t0, t1)
		for i := lo; i < hi; i++ {
			a, err := &answers[i-lo], errs[i-lo]
			if a.Cached {
				b.hits++
			} else {
				b.misses++
			}
			d, ok := want(i)
			rc.op(ok && err == nil && a.Seq >= seqLo && a.Seq <= seqHi && answerDigest(a) == d, func() string {
				return fmt.Sprintf("Lookup %q: %v %+v", inputs[i], err, *a)
			})
		}
		out = append(out, b)
	}
	return out
}

// fitLookup fits per-call hit and miss costs to the timed blocks by
// least squares (time = hits·hit + misses·miss) and sets the mean cost.
func (l *ladderResult) fitLookup(blocks []lookupBlock) error {
	var hh, hm, mm, ht, mt, tot, n float64
	for _, b := range blocks {
		hh += b.hits * b.hits
		hm += b.hits * b.misses
		mm += b.misses * b.misses
		ht += b.hits * b.ns
		mt += b.misses * b.ns
		tot += b.ns
		n += b.hits + b.misses
	}
	det := hh*mm - hm*hm
	if det <= 0 {
		return fmt.Errorf("lookup ladder: cannot separate hit and miss cost (%d blocks)", len(blocks))
	}
	l.HitNs = (ht*mm - mt*hm) / det
	l.MissNs = (mt*hh - ht*hm) / det
	l.LookupNs = tot / n
	for _, b := range blocks {
		l.Hits += int(b.hits)
		l.Misses += int(b.misses)
	}
	return nil
}

// ladderReps is how many times the in-process bottom rungs are
// replayed, alternating; each reports its median replay.
const ladderReps = 3

// sink keeps the bottom rungs' results observable.
var sink atomic.Int64

// bottomLadder times Snapshot.Resolve, the normalize calls and
// Matcher m's Match over the inputs, each as a whole loop so no clock
// read sits inside a sub-microsecond call, then checks the Resolve
// answers against want in a separate pass. A nil snap skips Resolve.
func bottomLadder(rc *runCtx, snap *serve.Snapshot, m psl.Matcher, hosts []string, lad *ladderResult, want func(i int) uint64) error {
	tr := rc.tr
	ascii := make([]string, len(hosts))
	for i, h := range hosts {
		a, err := normalize(h)
		if err != nil {
			return fmt.Errorf("normalize %q: %w", h, err)
		}
		ascii[i] = a
	}
	ring := tr.ring()
	loop := func(name string, fn func() int) float64 {
		t0 := time.Now()
		sink.Add(int64(fn()))
		t1 := time.Now()
		ring.record(tr, 0, name, -1, t0, t1)
		return float64(t1.Sub(t0)) / float64(len(hosts))
	}
	var resolve, norm, match []float64
	for rep := 0; rep < ladderReps; rep++ {
		if snap != nil {
			resolve = append(resolve, loop("ladder.resolve", func() int {
				n := 0
				for _, h := range hosts {
					a, _ := snap.Resolve(h)
					n += len(a.ETLD)
				}
				return n
			}))
		}
		norm = append(norm, loop("ladder.normalize", func() int {
			n := 0
			for _, h := range hosts {
				a, _ := normalize(h)
				n += len(a)
			}
			return n
		}))
		match = append(match, loop("ladder.match", func() int {
			n := 0
			for _, h := range ascii {
				n += m.Match(h).SuffixLabels
			}
			return n
		}))
	}
	lad.ResolveNs, lad.NormalizeNs, lad.MatchNs = median(resolve), median(norm), median(match)
	if snap == nil {
		return nil
	}
	for i, h := range hosts {
		a, err := snap.Resolve(h)
		rc.op(err == nil && answerDigest(&a) == want(i), func() string {
			return fmt.Sprintf("Resolve %q: %v %+v", h, err, a)
		})
	}
	return nil
}

// normalize makes the four public calls Snapshot.Resolve's host
// normalization makes, in its order.
func normalize(name string) (string, error) {
	name = domain.Normalize(name)
	if name == "" || domain.IsIP(name) {
		return "", psl.ErrNotDomain
	}
	ascii, err := idna.ToASCII(name)
	if err != nil {
		return "", err
	}
	if err := domain.Check(ascii); err != nil {
		return "", err
	}
	return ascii, nil
}
