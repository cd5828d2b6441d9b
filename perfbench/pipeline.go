package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/psl"
	"repro/internal/repos"
)

// pipelineScale is the paper-pipeline snapshot scale (pslharm -scale 4).
const pipelineScale = 4

// refArtefactDigest is the SHA-256 over every artefact the pipeline
// renders at the reference seed and pipelineScale (id, NUL, text, NUL,
// in render order). A run at the reference seed must reproduce it.
const refArtefactDigest = "0f022d379b7b9cbd3048b3222b690e42010a0b838dfa441125dee67e7257895e"

// table2Hostnames are the paper's Table 2 hostname counts, which the
// generated snapshot plants exactly at every seed and scale. Runs at
// other seeds check these instead of the digest.
var table2Hostnames = map[string]int{
	"myshopify.com": 7848, "digitaloceanspaces.com": 3359, "smushcdn.com": 3337,
	"r.appspot.com": 3194, "sp.gov.br": 2024, "altervista.org": 1954,
	"readthedocs.io": 1887, "netlify.app": 1278, "mg.gov.br": 1153,
	"lpages.co": 1067, "pr.gov.br": 891, "web.app": 871,
	"carrd.co": 776, "rs.gov.br": 747, "sc.gov.br": 714,
}

// renderIDs is every artefact `pslharm all` prints.
func renderIDs() []string { return append(experiments.IDs(), experiments.ExtraIDs()...) }

func pipelineLayer() []metricSpec {
	specs := []metricSpec{
		{"history.generate_s", "s"}, {"httparchive.generate_s", "s"},
		{"core.classify_s", "s"}, {"experiments.render_s", "s"},
		{"httparchive.requests_per_s", "1/s"}, {"core.classify_hosts_per_s", "1/s"},
		{"heap.after_history_mb", "MB"}, {"heap.after_snapshot_mb", "MB"},
		{"heap.after_classify_mb", "MB"}, {"heap.after_render_mb", "MB"},
	}
	for _, id := range renderIDs() {
		specs = append(specs, metricSpec{"experiments.render." + id + "_s", "s"})
	}
	return specs
}

// pipelineIter is one end-to-end pipeline execution.
type pipelineIter struct {
	setup, total                      time.Duration
	history, snapshot, classify, rend time.Duration
	renders                           map[string]time.Duration
	heapMB                            map[string]float64
	requests                          int64 // archive requests classified
	digest                            string
	env                               *experiments.Env
}

// pipelineOnce runs generation, classification and rendering once.
// With tr set it records a span per stage and per artefact and reads
// the heap after each stage.
func pipelineOnce(seed int64, tr *tracer) (pipelineIter, error) {
	it := pipelineIter{renders: map[string]time.Duration{}, heapMB: map[string]float64{}}
	var (
		ring *spanRing
		root uint64
	)
	mark := func(name string, parent uint64, t0, t1 time.Time) uint64 {
		if ring == nil {
			return 0
		}
		return ring.record(tr, parent, name, seed, t0, t1)
	}
	heap := func(stage string) {
		if tr != nil {
			it.heapMB[stage] = heapMB()
		}
	}
	if tr != nil {
		ring = tr.ring()
		root = tr.id()
	}

	t0 := time.Now()
	h := history.Generate(history.Config{Seed: seed})
	t1 := time.Now()
	mark("history.Generate", root, t0, t1)
	heap("history")
	snap := httparchive.Generate(httparchive.Config{Seed: seed, Scale: pipelineScale}, h)
	t2 := time.Now()
	mark("httparchive.Generate", root, t1, t2)
	heap("snapshot")
	corpus := repos.Corpus(seed)
	t3 := time.Now()
	mark("repos.Corpus", root, t2, t3)
	env := &experiments.Env{Seed: seed, Scale: pipelineScale, H: h, Corpus: corpus, Snap: snap}
	env.Pipeline()
	t4 := time.Now()
	mark("experiments.Env.Pipeline", root, t3, t4)
	heap("classify")
	rendID := uint64(0)
	if tr != nil {
		rendID = tr.id()
	}
	sum := sha256.New()
	for _, id := range renderIDs() {
		r0 := time.Now()
		out, ok := env.Render(id)
		r1 := time.Now()
		if !ok {
			return it, fmt.Errorf("artefact %q unknown to Env.Render", id)
		}
		mark("experiments.Env.Render "+id, rendID, r0, r1)
		it.renders[id] = r1.Sub(r0)
		sum.Write([]byte(id))
		sum.Write([]byte{0})
		sum.Write([]byte(out))
		sum.Write([]byte{0})
	}
	t5 := time.Now()
	if ring != nil {
		ring.add(span{ID: rendID, Parent: root, Name: "experiments.Render", Req: seed, Start: tr.at(t4), End: tr.at(t5)})
		ring.add(span{ID: root, Name: "pipeline", Req: seed, Start: tr.at(t0), End: tr.at(t5)})
	}
	heap("render")
	it.setup = t3.Sub(t0)
	it.total = t5.Sub(t0)
	it.history, it.snapshot, it.classify, it.rend = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3), t5.Sub(t4)
	it.requests = snap.Requests
	it.digest = hex.EncodeToString(sum.Sum(nil))
	it.env = env
	return it, nil
}

// checkArtefacts verifies a run's first iteration: the committed digest
// at the reference seed, Table 2's planted counts elsewhere.
func checkArtefacts(rc *runCtx, it pipelineIter) {
	seed := rc.cfg.seed
	if seed == refSeed {
		rc.op(it.digest == refArtefactDigest, func() string {
			return fmt.Sprintf("artefact digest %s, committed %s", it.digest, refArtefactDigest)
		})
		return
	}
	got := it.env.Snap.HostsBySuffix(it.env.H.Latest())
	for _, s := range sortedKeys(table2Hostnames) {
		rc.op(got[s] == table2Hostnames[s], func() string {
			return fmt.Sprintf("seed %d: %d hostnames under %s, Table 2 plants %d", seed, got[s], s, table2Hostnames[s])
		})
	}
}

func runPaperPipeline(rc *runCtx) error {
	var (
		first string
		iters []pipelineIter
	)
	// Every later iteration must reproduce the first one's artefacts.
	add := func(it pipelineIter) {
		if first == "" {
			first = it.digest
			checkArtefacts(rc, it)
		} else {
			rc.op(it.digest == first, func() string {
				return fmt.Sprintf("iteration %d digest %s differs from %s", len(iters), it.digest, first)
			})
		}
		it.env = nil
		iters = append(iters, it)
		freshHeap()
	}
	freshHeap()
	if !rc.cfg.trace {
		// Each iteration starts from a released heap and has its own
		// peak; the run reports the median iteration.
		var peaks []float64
		start := time.Now()
		for len(iters) == 0 || time.Since(start) < rc.cfg.window() {
			rss := startRSS()
			it, err := pipelineOnce(rc.cfg.seed, nil)
			if err != nil {
				return err
			}
			peaks = append(peaks, rss.end())
			add(it)
		}
		var setups, totals []float64
		for _, it := range iters {
			setups = append(setups, it.setup.Seconds())
			totals = append(totals, it.total.Seconds())
		}
		rc.dist("pipeline_s", summarize(append([]float64(nil), totals...)))
		rc.note("iterations", len(iters))
		rc.note("artefact_digest", first)
		rc.set("setup_s", median(setups), "s")
		pipelineS := median(totals)
		rc.set("pipeline_s", pipelineS, "s")
		rc.set("latency_p50_ms", pipelineS*1e3, "ms")
		rc.set("throughput_per_s", float64(iters[0].requests)/pipelineS, "1/s")
		rc.set("peak_rss_mb", median(peaks), "MB")
		return nil
	}

	// Traced run: one untraced iteration, then one traced.
	plain, err := pipelineOnce(rc.cfg.seed, nil)
	if err != nil {
		return err
	}
	add(plain)
	plain.env = nil
	freshHeap()
	gc0 := gcNow()
	it, err := pipelineOnce(rc.cfg.seed, rc.tr)
	if err != nil {
		return err
	}
	cycles, pause := gc0.since()
	requests, hosts := it.env.Snap.Requests, len(it.env.Snap.Hosts)
	// The list-lookup layers on the snapshot's hosts under the newest
	// list; the classifier itself works on rule spans and is timed
	// whole above.
	lad := &ladderResult{Inputs: hosts}
	if err := bottomLadder(rc, nil, psl.NewPackedMatcher(it.env.H.Latest()), it.env.Snap.Hosts, lad, nil); err != nil {
		return err
	}
	rc.set("domain.normalize_ns", lad.NormalizeNs, "ns")
	rc.set("psl.match_ns", lad.MatchNs, "ns")
	rc.set("runtime.heap_inuse_mb", it.heapMB["render"], "MB")
	add(it)
	rc.set("history.generate_s", it.history.Seconds(), "s")
	rc.set("httparchive.generate_s", it.snapshot.Seconds(), "s")
	rc.set("core.classify_s", it.classify.Seconds(), "s")
	rc.set("experiments.render_s", it.rend.Seconds(), "s")
	rc.set("httparchive.requests_per_s", float64(requests)/it.snapshot.Seconds(), "1/s")
	rc.set("core.classify_hosts_per_s", float64(hosts)/it.classify.Seconds(), "1/s")
	for stage, mb := range it.heapMB {
		rc.set("heap.after_"+stage+"_mb", mb, "MB")
	}
	for id, d := range it.renders {
		rc.set("experiments.render."+id+"_s", d.Seconds(), "s")
	}
	rc.set("runtime.gc_cycles", cycles, "count")
	rc.set("runtime.gc_pause_ms", pause, "ms")
	rc.set("trace.overhead_pct", 100*(it.total.Seconds()-plain.total.Seconds())/plain.total.Seconds(), "%")
	rc.note("requests", requests)
	rc.note("hosts", hosts)
	return nil
}
