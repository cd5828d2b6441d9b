package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// batchConns is the number of batch-cold connections.
const batchConns = 2

// batchLoad drives closed-loop binary POST /v1/batch traffic. Batches
// are numbered; each connection takes the next number when its
// previous reply is in, so the rows sent are always a prefix of the
// stream however the connections interleave.
type batchLoad struct {
	rc      *runCtx
	base    string
	stream  *batchStream
	exp     []uint64
	headSeq int
	conns   int
}

type batchRun struct {
	latMs   []float64 // per batch
	batches int64
	elapsed time.Duration
}

// run drives the load for dur, or, when limit >= 0, sends exactly
// batches [0, limit). With tr set, each batch records a client span
// whose id travels in a header to the server's span.
func (bl *batchLoad) run(dur time.Duration, limit int64, tr *tracer) batchRun {
	var (
		stop atomic.Bool
		next atomic.Int64
	)
	if limit < 0 {
		t := time.AfterFunc(dur, func() { stop.Store(true) })
		defer t.Stop()
	}
	lats := make([][]float64, bl.conns)
	start := time.Now()
	parallel(bl.conns, func(c int) {
		var (
			buf  bytes.Buffer
			body []byte
			ring *spanRing
			hdrs []header
		)
		conn := newRawConn(bl.base)
		defer conn.close()
		if tr != nil {
			ring = tr.ring()
		}
		hosts := make([]string, batchRows)
		idx := make([]int32, batchRows)
		for {
			if limit < 0 && stop.Load() {
				break
			}
			b := next.Add(1) - 1
			if limit >= 0 && b >= limit {
				break
			}
			bl.stream.batch(b, hosts, idx)
			var err error
			if body, err = serve.AppendBatchRequest(body[:0], hosts); err != nil {
				bl.rc.ops(batchRows, batchRows, func() string { return fmt.Sprintf("encoding batch %d: %v", b, err) })
				continue
			}
			var sid uint64
			if ring != nil {
				sid = tr.id()
				hdrs = append(hdrs[:0], header{hdrSpan, strconv.FormatUint(sid, 10)}, header{hdrReq, strconv.FormatInt(b, 10)})
			}
			t0 := time.Now()
			status, err := conn.do(http.MethodPost, serve.BatchPath, serve.BatchBinaryContentType, body, hdrs, &buf)
			t1 := time.Now()
			if ring != nil {
				ring.add(span{ID: sid, Name: "client.batch", Req: b, Start: tr.at(t0), End: tr.at(t1)})
			}
			lats[c] = append(lats[c], float64(t1.Sub(t0))/1e6)
			if err != nil || status != http.StatusOK {
				bl.rc.ops(batchRows, batchRows, func() string {
					return fmt.Sprintf("batch %d: status %d err %v body %.200s", b, status, err, buf.String())
				})
				continue
			}
			bl.check(b, buf.Bytes(), hosts, idx)
		}
	})
	// A connection checks for the stop before taking a number, so every
	// number taken was sent; with a limit, the numbers past it were not.
	out := batchRun{batches: next.Load(), elapsed: time.Since(start)}
	if limit >= 0 {
		out.batches = limit
	}
	for _, l := range lats {
		out.latMs = append(out.latMs, l...)
	}
	return out
}

// check verifies a binary batch response row by row.
func (bl *batchLoad) check(b int64, body []byte, hosts []string, idx []int32) {
	rows, err := serve.DecodeBatchResponse(body)
	if err != nil || len(rows) != len(hosts) {
		bl.rc.ops(batchRows, batchRows, func() string { return fmt.Sprintf("batch %d: %d rows, %v", b, len(rows), err) })
		return
	}
	var (
		w      wireAnswer
		failed int64
		first  = -1
	)
	for r, row := range rows {
		if scanAnswer(row, &w) != nil || w.hasErr || w.seq != bl.headSeq || w.digest() != bl.exp[idx[r]] {
			failed++
			if first < 0 {
				first = r
			}
		}
	}
	bl.rc.ops(int64(len(rows)), failed, func() string {
		return fmt.Sprintf("batch %d row %q: %.300s", b, hosts[first], rows[first])
	})
}

func runBatchCold(rc *runCtx) error {
	c := loadCorpus(4)
	exp, err := expectedAll(c.head, c.hosts)
	if err != nil {
		return err
	}
	stable, err := stableHosts(c.head, c.hosts, exp)
	if err != nil {
		return err
	}
	stream, err := newBatchStream(c.hosts, stable, rc.cfg.seed)
	if err != nil {
		return err
	}
	if err := checkBatchStream(c.head, stream, exp, 4096, rc.cfg.seed); err != nil {
		return err
	}
	rc.note("pool_hosts", len(c.hosts))
	rc.note("label_stable_hosts", len(stream.labelled))

	freshHeap()
	rss := startRSS()
	svc, srv, setupS, err := setupLookupService(c)
	if err != nil {
		return err
	}
	defer srv.stop()
	bl := &batchLoad{rc: rc, base: srv.URL, stream: stream, exp: exp, headSeq: c.headSeq, conns: batchConns}
	gc0 := gcNow()
	if !rc.cfg.trace {
		r := bl.run(rc.cfg.window(), -1, nil)
		peak := rss.end()
		s := summarize(r.latMs)
		rc.dist("batch_ms", s)
		if !s.P99OK {
			return fmt.Errorf("%d batches are too few for a p99 with %d samples beyond it", s.N, minBeyond)
		}
		rc.note("rows", r.batches*batchRows)
		rc.set("batch_rows_per_s", float64(r.batches*batchRows)/r.elapsed.Seconds(), "1/s")
		rc.set("throughput_per_s", float64(r.batches*batchRows)/r.elapsed.Seconds(), "1/s")
		rc.setPct("batch_p50_ms", "ms", s, 50)
		rc.setPct("latency_p50_ms", "ms", s, 50)
		rc.setPct("batch_p99_ms", "ms", s, 99)
		rc.set("setup_s", setupS, "s")
		rc.set("peak_rss_mb", peak, "MB")
		return nil
	}
	rss.end()

	// Traced run: the workload's socket phase untraced, then the same
	// batches traced, then the same batches down the ladder. Every rung
	// that owns a cache gets a fresh service, so each replays the rows
	// cold.
	r1 := bl.run(rc.cfg.window()/8, -1, nil)
	cycles, pause := gc0.since()
	rc.set("runtime.heap_inuse_mb", heapMB(), "MB")
	s1 := summarize(r1.latMs)
	rc.dist("untraced.batch_ms", s1)
	fresh := func() *serve.Service { return serve.NewFromHistory(c.h, c.headSeq, serve.Options{}) }
	tsrv, err := startServer(tracedHandler(rc.tr, "serve.handler", fresh()))
	if err != nil {
		return err
	}
	bl.base = tsrv.URL
	r2 := bl.run(0, r1.batches, rc.tr)
	if err := tsrv.stop(); err != nil {
		return err
	}
	s2 := summarize(r2.latMs)
	rc.dist("traced.batch_ms", s2)

	// The ladder runs each rung on one connection or goroutine.
	tr := rc.tr
	root := tr.id()
	B := r1.batches
	rows := float64(B * batchRows)
	srv1, err := startServer(fresh())
	if err != nil {
		return err
	}
	one := *bl
	one.base, one.conns = srv1.URL, 1
	var r3 batchRun
	rungSpan(tr, root, "ladder.socket", func(*spanRing, uint64) { r3 = one.run(0, B, nil) })
	if err := srv1.stop(); err != nil {
		return err
	}
	var httpNs, lookupNs time.Duration
	hosts := make([]string, batchRows)
	idx := make([]int32, batchRows)
	svc3 := fresh()
	rungSpan(tr, root, "ladder.servehttp", func(ring *spanRing, parent uint64) {
		var body []byte
		for b := int64(0); b < B; b++ {
			stream.batch(b, hosts, idx)
			body, _ = serve.AppendBatchRequest(body[:0], hosts)
			req := httptest.NewRequest(http.MethodPost, serve.BatchPath, bytes.NewReader(body))
			req.Header.Set("Content-Type", serve.BatchBinaryContentType)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			svc3.ServeHTTP(rec, req)
			t1 := time.Now()
			httpNs += t1.Sub(t0)
			ring.record(tr, parent, "serve.ServeHTTP", b, t0, t1)
			if rec.Code != http.StatusOK {
				rc.ops(batchRows, batchRows, func() string { return fmt.Sprintf("ServeHTTP batch %d: %d", b, rec.Code) })
				continue
			}
			bl.check(b, rec.Body.Bytes(), hosts, idx)
		}
	})
	svc4 := fresh()
	rungSpan(tr, root, "ladder.lookupbatch", func(ring *spanRing, parent uint64) {
		var dst []serve.Answer
		for b := int64(0); b < B; b++ {
			stream.batch(b, hosts, idx)
			t0 := time.Now()
			dst = svc4.LookupBatch(hosts, dst[:0])
			t1 := time.Now()
			lookupNs += t1.Sub(t0)
			ring.record(tr, parent, "serve.LookupBatch", b, t0, t1)
			var failed int64
			for r := range dst {
				if a := &dst[r]; a.Error != "" || a.Seq != c.headSeq || answerDigest(a) != exp[idx[r]] {
					failed++
				}
			}
			rc.ops(int64(len(dst)), failed, func() string { return fmt.Sprintf("LookupBatch batch %d: %d rows wrong", b, failed) })
		}
	})

	all := make([]string, 0, B*batchRows)
	want := make([]int32, 0, B*batchRows)
	for b := int64(0); b < B; b++ {
		stream.batch(b, hosts, idx)
		all = append(all, hosts...)
		want = append(want, idx...)
	}
	lad := &ladderResult{Inputs: len(all)}
	snap := svc.Current()
	if err := bottomLadder(rc, snap, snap.Matcher, all, lad, func(i int) uint64 { return exp[want[i]] }); err != nil {
		return err
	}
	socketPerRow := mean(r3.latMs) * 1e6 / batchRows
	httpPerRow := float64(httpNs) / rows
	lookupPerRow := float64(lookupNs) / rows
	lad.report(rc)
	rc.set("serve.batch_lookup_ns_per_row", lookupPerRow, "ns")
	rc.set("serve.batch_codec_ns_per_row", httpPerRow-lookupPerRow, "ns")
	rc.set("serve.batch_wire_ns_per_row", socketPerRow-httpPerRow, "ns")
	rc.set("runtime.gc_cycles", cycles, "count")
	rc.set("runtime.gc_pause_ms", pause, "ms")
	rc.set("trace.overhead_pct", 100*(s2.P50-s1.P50)/s1.P50, "%")
	rc.note("ladder", lad)
	rc.note("ladder_batches", B)
	rc.note("ladder_ns_per_row", map[string]float64{"socket": socketPerRow, "servehttp": httpPerRow, "lookupbatch": lookupPerRow})
	return nil
}
