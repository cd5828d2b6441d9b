package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/dnssim"
	"repro/internal/httparchive"
	"repro/internal/obs"
	"repro/internal/psl"
	"repro/internal/serve"
	"repro/internal/submit"
)

const (
	// publishConns is the number of lookup connections against the edge.
	publishConns = 1
	// publishPace is the writer's fixed submission interval.
	publishPace = time.Second
	// minSubmissions keeps ten submissions beyond the median, so the
	// write-path p50s are reportable whatever the window.
	minSubmissions = 20
	// publishSetupReps is how many times a run builds the stack.
	publishSetupReps = 3
)

// publishStack is the write path and one edge: a submission pipeline
// publishing through a dist.Origin served over loopback, and a
// serve.Service fed by a blob-fetching dist.Replica.
type publishStack struct {
	origin  *dist.Origin
	pipe    *submit.Pipeline
	osrv    *server
	client  *http.Client
	bytes   *countingTransport
	rep     *dist.Replica
	edge    *serve.Service
	esrv    *server
	journal *obs.Journal

	mu    sync.Mutex
	swaps []time.Duration // time inside OnInstall → SwapVerified
	// onSwap, when set, is told each swap's interval (the traced run
	// records it as a span).
	onSwap func(t0, t1 time.Time)
}

// newPublishStack builds the stack: origin and its server, pipeline,
// replica bootstrap (full blob plus matcher blob), edge service and
// its server. With tr set the replica and edge share a journal and the
// edge's server records spans.
func newPublishStack(c *corpus, zone *dnssim.Zone, pop *httparchive.Snapshot, tr *tracer) (*publishStack, error) {
	s := &publishStack{origin: dist.NewOrigin(c.h)}
	var err error
	if s.pipe, err = submit.New(s.origin, submit.Config{Resolver: zone, Population: pop}); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(dist.Prefix, s.origin)
	if s.osrv, err = startServer(mux); err != nil {
		return nil, err
	}
	s.bytes = &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
	s.client = &http.Client{Transport: s.bytes, Timeout: 30 * time.Second}
	opts := dist.ReplicaOptions{Client: s.client, FetchBlobs: true}
	if tr != nil {
		s.journal = obs.NewJournal("edge", 0)
		opts.Journal = s.journal
	}
	s.rep = dist.NewReplica(s.osrv.URL, opts)
	ctx := context.Background()
	l, seq, err := s.rep.Bootstrap(ctx, -1)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	fp := l.Fingerprint()
	var m psl.Matcher
	if pm := s.rep.FetchMatcherBlob(ctx, seq, fp); pm != nil {
		m = pm
	}
	s.edge = serve.NewWith(l, seq, fp, m, serve.Options{})
	s.edge.SetJournal(s.journal)
	s.rep.OnInstall = func(l *psl.List, seq int, fp string, m psl.Matcher) {
		t0 := time.Now()
		s.edge.SwapVerified(l, seq, fp, m)
		t1 := time.Now()
		s.mu.Lock()
		s.swaps = append(s.swaps, t1.Sub(t0))
		s.mu.Unlock()
		if s.onSwap != nil {
			s.onSwap(t0, t1)
		}
	}
	var h http.Handler = s.edge
	if tr != nil {
		h = tracedHandler(tr, "serve.handler", s.edge)
	}
	if s.esrv, err = startServer(h); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *publishStack) stop() error {
	var errs []error
	if s.esrv != nil {
		errs = append(errs, s.esrv.stop())
	}
	if s.osrv != nil {
		errs = append(errs, s.osrv.stop())
	}
	closeClient(s.client)
	return errors.Join(errs...)
}

// submission is one writer step's measurements.
type submission struct {
	seq         int
	submitMs    float64
	propagateMs float64
	servedMs    float64 // Submit call to the edge at the new seq
	pollMs      float64
	bytes       int64
	stageMs     [5]float64 // lint, semantic, authorization, risk, publish
	flips       int
	population  int
}

func runPublishUnderLoad(rc *runCtx) error {
	c := loadCorpus(1)
	stream := newLookupStream(len(c.hosts), rc.cfg.seed)
	exp, err := expectedAll(c.head, c.hosts)
	if err != nil {
		return err
	}
	n := max(minSubmissions, rc.cfg.seconds)
	plan, err := planSubmissions(c, exp, stream.byRank, rc.cfg.seed, n)
	if err != nil {
		return err
	}
	zone := dnssim.NewZone()
	for _, p := range plan.subs {
		zone.AddTXT("_psl."+p.owner, submit.ComputeID(p.req))
	}
	pop := &httparchive.Snapshot{Hosts: c.hosts, Date: httparchive.SnapshotDate}
	paths := lookupPaths(c.hosts)
	rc.note("pool_hosts", len(c.hosts))
	rc.note("submissions", n)

	freshHeap()
	rss := startRSS()
	var (
		st     *publishStack
		setups []float64
	)
	for k := 0; k < publishSetupReps; k++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if st, err = newPublishStack(c, zone, pop, rc.tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.stop()
	if err := warm(st.edge, c.hosts, stream); err != nil {
		return err
	}
	lastSeq := c.headSeq + n
	ld := &lookupLoad{
		rc: rc, base: st.esrv.URL, paths: paths, hosts: c.hosts, conns: publishConns,
		at: func(c, i int) int32 { return stream.at(c, publishConns, i) },
		expect: func(idx int32, seq int) (uint64, bool) {
			return plan.expectAt(exp, idx, seq), seq >= c.headSeq && seq <= lastSeq
		},
	}
	var writerSpans *spanRing
	if rc.tr != nil {
		writerSpans = rc.tr.ring()
	}
	var pollSpan atomic.Uint64
	if rc.tr != nil {
		st.onSwap = func(t0, t1 time.Time) {
			writerSpans.record(rc.tr, pollSpan.Load(), "serve.SwapVerified", -1, t0, t1)
		}
	}
	compile0, blob0, _ := st.edge.MatcherInstalls()
	blobHits0, blobMiss0 := st.rep.BlobHits(), st.rep.BlobMisses()
	gc0 := gcNow()

	// The writer and the lookup connection run side by side; lookups
	// stop once the writer is done and the window has passed. A traced
	// run sends its first half of lookups untraced and the rest traced
	// (the difference is the tracing overhead).
	var (
		subs     []submission
		stopHalf atomic.Bool
		stopAll  atomic.Bool
		runs     []lookupRun
	)
	start := time.Now()
	window := max(rc.cfg.window(), time.Duration(n)*publishPace)
	halfTimer := time.AfterFunc(window/2, func() { stopHalf.Store(true) })
	defer halfTimer.Stop()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rc.tr == nil {
			runs = append(runs, ld.runUntil(&stopAll, nil, nil))
			return
		}
		runs = append(runs, ld.runUntil(&stopHalf, nil, nil))
		runs = append(runs, ld.runUntil(&stopAll, nil, rc.tr))
	}()
	for k, p := range plan.subs {
		time.Sleep(time.Until(start.Add(time.Duration(k) * publishPace)))
		subs = append(subs, writeStep(rc, st, p, k, writerSpans, &pollSpan))
	}
	time.Sleep(time.Until(start.Add(window)))
	stopAll.Store(true)
	wg.Wait()
	cycles, pause := gc0.since()
	heap := heapMB()
	compile1, blob1, _ := st.edge.MatcherInstalls()

	var submitMs, propMs, servedMs []float64
	for _, s := range subs {
		if s.seq > 0 {
			submitMs = append(submitMs, s.submitMs)
			propMs = append(propMs, s.propagateMs)
			servedMs = append(servedMs, s.servedMs)
		}
	}
	ss, ps, sv := summarize(submitMs), summarize(propMs), summarize(servedMs)
	rc.dist("submit_ms", ss)
	rc.dist("propagate_ms", ps)
	rc.dist("served_ms", sv)
	if !rc.cfg.trace {
		peak := rss.end()
		if _, err := reportLookup(rc, "lookup", runs[0], median(setups), peak); err != nil {
			return err
		}
		rc.setPct("submit_p50_ms", "ms", ss, 50)
		rc.setPct("propagate_p50_ms", "ms", ps, 50)
		rc.setPct("latency_p50_ms", "ms", sv, 50)
		return nil
	}
	rss.end()
	rc.set("runtime.heap_inuse_mb", heap, "MB")

	// Per-layer figures of the traced run.
	s1, s2 := summarize(runs[0].latUs), summarize(runs[1].latUs)
	rc.dist("untraced.lookup_us", s1)
	rc.dist("traced.lookup_us", s2)
	rc.set("trace.overhead_pct", 100*(s2.P50-s1.P50)/s1.P50, "%")
	rc.set("runtime.gc_cycles", cycles, "count")
	rc.set("runtime.gc_pause_ms", pause, "ms")
	rc.set("serve.installs_blob", float64(blob1-blob0), "count")
	rc.set("serve.installs_compile", float64(compile1-compile0), "count")
	hits, misses := st.rep.BlobHits()-blobHits0, st.rep.BlobMisses()-blobMiss0
	rc.set("dist.blob_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")

	var swaps []float64
	st.mu.Lock()
	for _, d := range st.swaps {
		swaps = append(swaps, float64(d)/1e6)
	}
	st.mu.Unlock()
	rc.dist("swap_ms", summarize(append([]float64(nil), swaps...)))
	rc.set("serve.swap_ms", median(swaps), "ms")

	var (
		stage        [5][]float64
		polls        []float64
		bytes        int64
		flips, popul int
		ok           int
	)
	for _, s := range subs {
		if s.seq <= 0 {
			continue
		}
		ok++
		for i := range stage {
			stage[i] = append(stage[i], s.stageMs[i])
		}
		polls = append(polls, s.pollMs)
		bytes += s.bytes
		flips += s.flips
		popul += s.population
	}
	for i, name := range []string{"lint", "semantic", "authorization", "risk", "publish"} {
		rc.set("submit."+name+"_ms", median(stage[i]), "ms")
	}
	rc.set("submit.risk_flip_ratio", float64(flips)/float64(max(1, popul)), "ratio")
	rc.set("dist.poll_ms", median(polls), "ms")
	rc.set("dist.bytes_per_publish", float64(bytes)/float64(max(1, ok)), "B")

	// Propagation stages from the edge journal, relative to the
	// origin's publish stamp.
	stages := map[string][]float64{}
	for _, s := range subs {
		tl, found := st.journal.Timeline(s.seq)
		if s.seq <= 0 || !found {
			continue
		}
		var pub time.Time
		for _, e := range tl.Events {
			if e.Stage == obs.StagePublished {
				pub = e.At
			}
		}
		if pub.IsZero() {
			continue
		}
		for _, e := range tl.Events {
			stages[e.Stage] = append(stages[e.Stage], float64(e.At.Sub(pub))/1e6)
		}
	}
	for name, stage := range map[string]string{
		"dist.fetched_ms": obs.StageFetched, "dist.verified_ms": obs.StageVerified,
		"dist.installed_ms": obs.StageInstalled, "serve.served_first_ms": obs.StageServedFirst,
	} {
		if len(stages[stage]) == 0 {
			return fmt.Errorf("journal recorded no %s events", stage)
		}
		rc.set(name, median(stages[stage]), "ms")
	}

	// Service.Lookup split by cache result, replaying the traced
	// half's requests on the edge as the run left it.
	inputs := make([]string, runs[1].counts[0])
	for i := range inputs {
		inputs[i] = c.hosts[stream.at(0, publishConns, i)]
	}
	clk := clockCost()
	lad := &ladderResult{ClockNs: float64(clk)}
	edgeSeq := st.edge.Current().Seq
	blocks := timeLookups(rc, st.edge, inputs, clk, func(i int) (uint64, bool) {
		return plan.expectAt(exp, stream.at(0, publishConns, i), edgeSeq), true
	}, edgeSeq, edgeSeq, rc.tr, writerSpans, 0)
	if err := lad.fitLookup(blocks); err != nil {
		return err
	}
	snap := st.edge.Current()
	if err := bottomLadder(rc, snap, snap.Matcher, inputs, lad, func(i int) uint64 {
		return plan.expectAt(exp, stream.at(0, publishConns, i), snap.Seq)
	}); err != nil {
		return err
	}
	lad.report(rc)
	rc.set("serve.lookup_hit_ns", lad.HitNs, "ns")
	rc.set("serve.lookup_miss_ns", lad.MissNs, "ns")
	rc.note("lookup_replay", lad)
	return nil
}

// writeStep performs writer step k: submit, poll the replica once, and
// probe the edge under the new rule. Failures are counted; a failed
// step returns seq 0.
func writeStep(rc *runCtx, st *publishStack, p plannedSub, k int, ring *spanRing, pollSpan *atomic.Uint64) submission {
	out := submission{flips: p.flips}
	t0 := time.Now()
	sub, err := st.pipe.Submit(p.req)
	t1 := time.Now()
	published := err == nil && sub.State == submit.StatePublished && sub.PublishedSeq == p.seq &&
		len(sub.Verdicts) == len(submit.Stages)
	for i := 0; published && i < len(sub.Verdicts); i++ {
		published = sub.Verdicts[i].Passed && sub.Verdicts[i].Stage == submit.Stages[i]
	}
	if !rc.op(published, func() string { return fmt.Sprintf("submission %d: %v %+v", k, err, sub) }) {
		return out
	}
	prev := t0
	for i, v := range sub.Verdicts {
		out.stageMs[i] = float64(v.At.Sub(prev)) / 1e6
		prev = v.At
	}
	if sub.Risk != nil {
		out.population = sub.Risk.Population
	}
	var root uint64
	if ring != nil {
		root = ring.record(rc.tr, 0, "submit.Pipeline.Submit", int64(k), t0, t1)
		prev := t0
		for _, v := range sub.Verdicts {
			ring.record(rc.tr, root, "submit."+v.Stage, int64(k), prev, v.At)
			prev = v.At
		}
	}

	bytes0 := st.bytes.bytes.Load()
	if ring != nil {
		pollSpan.Store(rc.tr.id())
	}
	p0 := time.Now()
	perr := st.rep.Poll(context.Background())
	p1 := time.Now()
	if ring != nil {
		ring.add(span{ID: pollSpan.Load(), Name: "dist.Replica.Poll", Req: int64(k), Start: rc.tr.at(p0), End: rc.tr.at(p1)})
	}
	seen := p1
	for st.edge.Current().Seq != p.seq && time.Since(p0) < 5*time.Second {
		time.Sleep(time.Millisecond)
		seen = time.Now()
	}
	a, lerr := st.edge.Lookup(p.probe)
	propagated := perr == nil && st.edge.Current().Seq >= p.seq && lerr == nil && a.Seq == p.seq && answerDigest(&a) == p.probeExp
	if !rc.op(propagated, func() string {
		return fmt.Sprintf("propagation of seq %d: poll %v, edge at %d, probe %q: %v %+v", p.seq, perr, st.edge.Current().Seq, p.probe, lerr, a)
	}) {
		return out
	}
	out.seq = p.seq
	out.submitMs = float64(t1.Sub(t0)) / 1e6
	out.pollMs = float64(p1.Sub(p0)) / 1e6
	out.propagateMs = float64(seen.Sub(p0)) / 1e6
	out.servedMs = float64(seen.Sub(t0)) / 1e6
	out.bytes = st.bytes.bytes.Load() - bytes0
	return out
}
