package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/psl"
)

// relayOver builds a relay following the given upstream URL, bootstraps
// it, and drives its replica through every head the walk function
// publishes, so the retained window is dense. It returns the relay and
// a test server re-serving /dist/ from it.
func relayOver(t *testing.T, upstream string, retain int) (*Relay, *Replica, *httptest.Server) {
	t.Helper()
	rep := NewReplica(upstream, fastOpts())
	rl := NewRelay(rep, RelayOptions{Retain: retain})
	ts := httptest.NewServer(rl)
	t.Cleanup(ts.Close)
	return rl, rep, ts
}

// stepTo walks the origin head to target one seq at a time, polling the
// relay's replica after each step so every intermediate version lands
// in the retained window.
func stepTo(t *testing.T, o *Origin, rep *Replica, target int) {
	t.Helper()
	ctx := context.Background()
	for seq := int(rep.CurrentSeq()) + 1; seq <= target; seq++ {
		o.SetHead(seq)
		if err := rep.Poll(ctx); err != nil {
			t.Fatalf("relay poll to %d: %v", seq, err)
		}
	}
}

// TestRelayServesDownstream wires origin → relay → edge over real HTTP
// and checks the edge converges through the relay alone, with the
// relay's manifest advertising depth 1 and the retained window bottom.
func TestRelayServesDownstream(t *testing.T) {
	h := testHist(t, 60)
	o := NewOrigin(h)
	o.SetHead(0)
	origin := httptest.NewServer(o)
	defer origin.Close()

	rl, rep, relaySrv := relayOver(t, origin.URL, 16)
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	stepTo(t, o, rep, 20)

	m, ok := rl.Manifest()
	if !ok {
		t.Fatal("relay has no manifest after 21 installs")
	}
	if m.Seq != 20 || m.Depth != 1 {
		t.Fatalf("relay manifest seq %d depth %d, want 20 and 1", m.Seq, m.Depth)
	}
	if m.MinSeq != 5 {
		t.Fatalf("relay min_seq %d, want 5 (21 installs, retain 16)", m.MinSeq)
	}
	if m.Fingerprint != o.Chain().Fingerprint(20) {
		t.Fatal("relay head fingerprint diverges from the origin chain")
	}

	edge := NewReplica(relaySrv.URL, fastOpts())
	if _, _, err := edge.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("edge bootstrap via relay: %v", err)
	}
	if edge.CurrentSeq() != 20 {
		t.Fatalf("edge bootstrapped to %d, want 20", edge.CurrentSeq())
	}
	if edge.UpstreamDepth() != 1 {
		t.Fatalf("edge sees upstream depth %d, want 1", edge.UpstreamDepth())
	}

	// Advance the origin; the edge must converge through the relay.
	stepTo(t, o, rep, 30)
	if err := edge.Poll(ctx); err != nil {
		t.Fatalf("edge poll: %v", err)
	}
	if edge.CurrentSeq() != 30 || edge.state.fp != o.Chain().Fingerprint(30) {
		t.Fatalf("edge at %d (fp match %v), want 30 verified against the origin chain",
			edge.CurrentSeq(), edge.state.fp == o.Chain().Fingerprint(30))
	}
	if got := edge.state.list.Serialize(); got != h.ListAt(30).Serialize() {
		t.Fatal("edge list differs from ListAt(30)")
	}
}

// TestRelayCompaction asks the relay for a patch spanning many retained
// versions: one blob comes back, wire-identical in format to an origin
// patch, and applies cleanly across the whole span.
func TestRelayCompaction(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(0)
	origin := httptest.NewServer(o)
	defer origin.Close()

	rl, rep, relaySrv := relayOver(t, origin.URL, 32)
	if _, _, err := rep.Bootstrap(context.Background(), -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	stepTo(t, o, rep, 12)

	status, body, _ := getBody(t, relaySrv.URL+patchPrefix+"2/11")
	if status != http.StatusOK {
		t.Fatalf("compacted patch status %d", status)
	}
	p, err := DecodePatch(body)
	if err != nil {
		t.Fatalf("decode compacted patch: %v", err)
	}
	if p.FromSeq != 2 || p.ToSeq != 11 {
		t.Fatalf("patch covers %d→%d, want 2→11", p.FromSeq, p.ToSeq)
	}
	if p.ToFP != o.Chain().Fingerprint(11) {
		t.Fatal("compacted patch target fingerprint diverges from the origin chain")
	}
	l, err := p.Apply(h.ListAt(2), o.Chain().Fingerprint(2))
	if err != nil {
		t.Fatalf("apply compacted patch: %v", err)
	}
	if l.Serialize() != h.ListAt(11).Serialize() {
		t.Fatal("compacted patch result differs from ListAt(11)")
	}
	if rl.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1", rl.Compactions())
	}

	// A single-step patch is not a compaction.
	if status, _, _ := getBody(t, relaySrv.URL+patchPrefix+"10/11"); status != http.StatusOK {
		t.Fatalf("single-step patch status %d", status)
	}
	if rl.Compactions() != 1 {
		t.Fatalf("Compactions after single-step patch = %d, want still 1", rl.Compactions())
	}
}

// TestRelayWindowEviction: the window holds at most Retain snapshots;
// requests below the floor are misses, and the manifest's min_seq
// tracks the floor.
func TestRelayWindowEviction(t *testing.T) {
	h := testHist(t, 30)
	o := NewOrigin(h)
	o.SetHead(0)
	origin := httptest.NewServer(o)
	defer origin.Close()

	rl, rep, relaySrv := relayOver(t, origin.URL, 4)
	if _, _, err := rep.Bootstrap(context.Background(), -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	// Render every cached kind while the window is [2, 5], so the slide
	// below has full, blob and patch entries to evict.
	stepTo(t, o, rep, 5)
	for _, path := range []string{fullPrefix + "2", blobPrefix + "3", patchPrefix + "2/5", patchPrefix + "4/5"} {
		if status, _, _ := getBody(t, relaySrv.URL+path); status != http.StatusOK {
			t.Fatalf("in-window %s status %d", path, status)
		}
	}
	for name, cache := range map[string]*sync.Map{"full": &rl.fulls, "blob": &rl.blobs, "patch": &rl.patches} {
		if n := cacheLen(cache); n == 0 {
			t.Fatalf("%s cache empty before the window slid", name)
		}
	}
	stepTo(t, o, rep, 9)

	if got := rl.Retained(); got != 4 {
		t.Fatalf("Retained = %d, want 4", got)
	}
	m, _ := rl.Manifest()
	if m.MinSeq != 6 || m.Seq != 9 {
		t.Fatalf("window [%d, %d], want [6, 9]", m.MinSeq, m.Seq)
	}
	if status, _, _ := getBody(t, relaySrv.URL+fullPrefix+"3"); status != http.StatusNotFound {
		t.Fatalf("evicted full served with status %d, want 404", status)
	}
	if status, _, _ := getBody(t, relaySrv.URL+patchPrefix+"3/9"); status != http.StatusNotFound {
		t.Fatalf("patch from evicted seq served with status %d, want 404", status)
	}
	if rl.Misses() != 2 {
		t.Fatalf("Misses = %d, want 2", rl.Misses())
	}
	// Within the window both still serve.
	if status, _, _ := getBody(t, relaySrv.URL+fullPrefix+"7"); status != http.StatusOK {
		t.Fatalf("retained full status %d", status)
	}
	if status, _, _ := getBody(t, relaySrv.URL+patchPrefix+"6/9"); status != http.StatusOK {
		t.Fatalf("retained patch status %d", status)
	}
	// No render cache keeps an entry below the floor.
	for name, cache := range map[string]*sync.Map{"full": &rl.fulls, "blob": &rl.blobs, "patch": &rl.patches} {
		cache.Range(func(k, _ any) bool {
			if k.(span).from < m.MinSeq {
				t.Errorf("%s cache still holds %+v below min_seq %d", name, k, m.MinSeq)
			}
			return true
		})
	}
}

func cacheLen(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestRelayUnavailableBeforeFirstInstall: a relay that has verified
// nothing yet answers 503, and an edge's Bootstrap against it fails
// rather than installing garbage.
func TestRelayUnavailableBeforeFirstInstall(t *testing.T) {
	rep := NewReplica("http://unused.invalid", fastOpts())
	rl := NewRelay(rep, RelayOptions{})
	ts := httptest.NewServer(rl)
	defer ts.Close()

	status, body, _ := getBody(t, ts.URL+ManifestPath)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("empty relay manifest status %d, want 503", status)
	}
	if !strings.Contains(string(body), "no verified snapshot") {
		t.Fatalf("unexpected 503 body %q", body)
	}
	edge := NewReplica(ts.URL, fastOpts())
	if _, _, err := edge.Bootstrap(context.Background(), -1); err == nil {
		t.Fatal("edge Bootstrap against an empty relay succeeded")
	}
	if rl.Retained() != 0 {
		t.Fatalf("Retained = %d, want 0", rl.Retained())
	}
}

// TestRelaySeedRestoresServing: Seed (the restore path) makes a relay
// servable without an upstream sync, fingerprint computed locally.
func TestRelaySeedRestoresServing(t *testing.T) {
	h := testHist(t, 10)
	rep := NewReplica("http://unused.invalid", fastOpts())
	rl := NewRelay(rep, RelayOptions{})
	rl.Seed(h.ListAt(4), 4)

	m, ok := rl.Manifest()
	if !ok {
		t.Fatal("seeded relay has no manifest")
	}
	if m.Seq != 4 || m.MinSeq != 4 || m.Rules != h.ListAt(4).Len() {
		t.Fatalf("seeded manifest seq %d min %d rules %d", m.Seq, m.MinSeq, m.Rules)
	}
	if m.Fingerprint != h.ListAt(4).Fingerprint() {
		t.Fatal("seeded fingerprint mismatch")
	}
}

// relaySeqs lists the seqs in the relay's window, ascending.
func relaySeqs(rl *Relay) []int {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	var seqs []int
	for _, s := range rl.ring {
		seqs = append(seqs, s.seq)
	}
	return seqs
}

// TestRelayFedWhateverOnVerifiedHolds: the replica feeds its relay
// directly, so an OnVerified hook assigned after NewRelay neither
// disconnects the relay nor is shadowed by it — both see every
// verified install, Bootstrap's included.
func TestRelayFedWhateverOnVerifiedHolds(t *testing.T) {
	h := testHist(t, 10)
	o := NewOrigin(h)
	o.SetHead(3)
	origin := httptest.NewServer(o)
	defer origin.Close()

	rl, rep, _ := relayOver(t, origin.URL, 16)
	var hooked []int
	rep.OnVerified = func(_ *psl.List, seq int, _ string) { hooked = append(hooked, seq) }
	ctx := context.Background()
	if _, _, err := rep.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	o.SetHead(5)
	if err := rep.Poll(ctx); err != nil {
		t.Fatalf("relay poll to 5: %v", err)
	}
	if fmt.Sprint(hooked) != "[3 5]" {
		t.Fatalf("OnVerified saw %v, want [3 5]", hooked)
	}
	if got := relaySeqs(rl); fmt.Sprint(got) != "[3 5]" {
		t.Fatalf("relay window %v, want [3 5]", got)
	}
	if rl.Retained() != 2 {
		t.Fatalf("Retained = %d, want 2", rl.Retained())
	}
	if m, ok := rl.Manifest(); !ok || m.Seq != 5 || m.MinSeq != 3 {
		t.Fatalf("relay manifest %+v ok=%v, want seq 5 min 3", m, ok)
	}
}

// TestRelayFedByRestoreState: a relay over a replica that resumes from
// its StateDir serves the restored snapshot without any Seed call.
func TestRelayFedByRestoreState(t *testing.T) {
	h := testHist(t, 10)
	dir := t.TempDir()
	if err := SaveState(dir, h.ListAt(6), 6); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	opts := fastOpts()
	opts.StateDir = dir
	rep := NewReplica("http://unused.invalid", opts)
	rl := NewRelay(rep, RelayOptions{})
	if _, seq, err := rep.RestoreState(); err != nil || seq != 6 {
		t.Fatalf("RestoreState = seq %d, %v; want 6", seq, err)
	}
	m, ok := rl.Manifest()
	if !ok {
		t.Fatal("relay over a restored replica has no manifest")
	}
	if m.Seq != 6 || m.Fingerprint != h.ListAt(6).Fingerprint() {
		t.Fatalf("relay manifest seq %d fp %s, want 6 / restored fingerprint", m.Seq, m.Fingerprint)
	}
}

// TestReplicaExactMaxHopGap is the regression for the off-by-one at
// exactly MaxHop patches behind: gaps of MaxHop-1, MaxHop, and MaxHop+1
// must all be served by bounded patches alone — no compaction probe, no
// full-blob fallback.
func TestReplicaExactMaxHopGap(t *testing.T) {
	h := testHist(t, 60)
	for _, gap := range []int{15, 16, 17} { // MaxHop is 16 in fastOpts
		o := NewOrigin(h)
		o.SetHead(0)
		ts := httptest.NewServer(o)
		rep := NewReplica(ts.URL, fastOpts())
		ctx := context.Background()
		if _, _, err := rep.Bootstrap(ctx, 0); err != nil {
			t.Fatalf("gap %d: Bootstrap: %v", gap, err)
		}
		baseFulls := rep.FullSyncs()
		o.SetHead(gap)
		if err := rep.Poll(ctx); err != nil {
			t.Fatalf("gap %d: Poll: %v", gap, err)
		}
		if rep.CurrentSeq() != int64(gap) {
			t.Errorf("gap %d: converged to %d", gap, rep.CurrentSeq())
		}
		if rep.FullSyncs() != baseFulls || rep.Fallbacks() != 0 {
			t.Errorf("gap %d: full syncs %d→%d, fallbacks %d; want patches only",
				gap, baseFulls, rep.FullSyncs(), rep.Fallbacks())
		}
		if rep.CompactProbes() != 0 {
			t.Errorf("gap %d: %d compaction probes on a healthy wire, want 0", gap, rep.CompactProbes())
		}
		wantHops := uint64(1)
		if gap > 16 {
			wantHops = 2
		}
		if rep.Applied() != wantHops {
			t.Errorf("gap %d: Applied = %d, want %d", gap, rep.Applied(), wantHops)
		}
		ts.Close()
	}
}

// TestReplicaCompactionProbe: an upstream relay with a sparse window —
// only the edge's current seq and the head retained — cannot serve the
// bounded hop, but one compacted patch covers the whole gap. The edge
// must probe for it instead of silently paying for a full sync.
func TestReplicaCompactionProbe(t *testing.T) {
	h := testHist(t, 60)
	up := NewReplica("http://unused.invalid", fastOpts())
	rl := NewRelay(up, RelayOptions{Retain: 64})
	rl.Seed(h.ListAt(5), 5)
	rl.Seed(h.ListAt(45), 45)
	ts := httptest.NewServer(rl)
	defer ts.Close()

	edge := NewReplica(ts.URL, fastOpts())
	edge.SetState(h.ListAt(5), 5)
	if err := edge.Poll(context.Background()); err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if edge.CurrentSeq() != 45 {
		t.Fatalf("edge at %d, want 45", edge.CurrentSeq())
	}
	if edge.CompactProbes() != 1 || edge.CompactHits() != 1 {
		t.Fatalf("probes %d hits %d, want 1/1", edge.CompactProbes(), edge.CompactHits())
	}
	if edge.FullSyncs() != 0 || edge.Fallbacks() != 0 {
		t.Fatalf("full syncs %d fallbacks %d, want 0/0 — the probe exists to avoid these",
			edge.FullSyncs(), edge.Fallbacks())
	}
	if rl.Compactions() != 1 {
		t.Fatalf("relay compactions %d, want 1", rl.Compactions())
	}
	if edge.state.fp != h.ListAt(45).Fingerprint() {
		t.Fatal("probe result fingerprint mismatch")
	}
}

// TestRelayMetricsExposition: the relay's families render through a
// registry and pass the promlint-style validator.
func TestRelayMetricsExposition(t *testing.T) {
	h := testHist(t, 10)
	up := NewReplica("http://unused.invalid", fastOpts())
	rl := NewRelay(up, RelayOptions{})
	rl.Seed(h.ListAt(3), 3)
	ts := httptest.NewServer(rl)
	defer ts.Close()
	getBody(t, ts.URL+ManifestPath)
	getBody(t, ts.URL+fullPrefix+"3")

	reg := obs.NewRegistry()
	rl.RegisterMetrics(reg)
	up.RegisterMetrics(reg)
	text := reg.Render()
	for _, want := range []string{
		`psl_dist_relay_requests_total{endpoint="manifest"} 1`,
		`psl_dist_relay_requests_total{endpoint="full"} 1`,
		`psl_dist_relay_bytes_total{kind="full"}`,
		`psl_dist_relay_renders_total{kind="full"} 1`,
		`psl_dist_relay_compactions_total 0`,
		`psl_dist_relay_window_misses_total 0`,
		`psl_dist_relay_unavailable_total 0`,
		`psl_dist_relay_not_modified_total 0`,
		`psl_dist_blob_requests_total 0`,
		`psl_dist_blob_bytes_total 0`,
		`psl_dist_blob_renders_total 0`,
		`psl_dist_relay_retained_snapshots 1`,
		`psl_dist_relay_head_seq 3`,
		"psl_dist_replica_compact_probes_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// edgeConvergesThroughDeepChain pins arbitrary-depth fan-out: origin →
// relay → relay → edge, with the second relay following the first and
// the edge seeing depth 2.
func TestRelayChainDepthTwo(t *testing.T) {
	h := testHist(t, 30)
	o := NewOrigin(h)
	o.SetHead(0)
	origin := httptest.NewServer(o)
	defer origin.Close()

	_, rep1, srv1 := relayOver(t, origin.URL, 32)
	_, rep2, srv2 := relayOver(t, srv1.URL, 32)
	ctx := context.Background()
	if _, _, err := rep1.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("tier-1 bootstrap: %v", err)
	}
	if _, _, err := rep2.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("tier-2 bootstrap: %v", err)
	}
	for seq := 1; seq <= 8; seq++ {
		o.SetHead(seq)
		if err := rep1.Poll(ctx); err != nil {
			t.Fatalf("tier-1 poll: %v", err)
		}
		if err := rep2.Poll(ctx); err != nil {
			t.Fatalf("tier-2 poll: %v", err)
		}
	}

	edge := NewReplica(srv2.URL, fastOpts())
	if _, _, err := edge.Bootstrap(ctx, -1); err != nil {
		t.Fatalf("edge bootstrap: %v", err)
	}
	if edge.CurrentSeq() != 8 {
		t.Fatalf("edge at %d, want 8", edge.CurrentSeq())
	}
	if edge.UpstreamDepth() != 2 {
		t.Fatalf("edge upstream depth %d, want 2", edge.UpstreamDepth())
	}
	if edge.state.fp != o.Chain().Fingerprint(8) {
		t.Fatal("deep-chain fingerprint diverges from the origin chain")
	}
}

// TestOriginRelayWireParity drives an origin at head 20 and a relay
// following it (Retain 16, so window [5, 20]) through the same requests.
// Every retained version must come back identically from both tiers —
// status, ETag, Content-Type and body, compacted patches and matcher
// blobs included — and the manifests may differ only where the tiers
// do: min_seq, depth and published_at.
func TestOriginRelayWireParity(t *testing.T) {
	h := testHist(t, 40)
	o := NewOrigin(h)
	o.SetHead(0)
	origin := httptest.NewServer(o)
	defer origin.Close()
	rl, rep, relaySrv := relayOver(t, origin.URL, 16)
	if _, _, err := rep.Bootstrap(context.Background(), -1); err != nil {
		t.Fatalf("relay bootstrap: %v", err)
	}
	stepTo(t, o, rep, 20)

	type answer struct {
		status      int
		etag, ctype string
		body        []byte
	}
	get := func(url, ifNoneMatch string) answer {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", url, err)
		}
		return answer{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"), body}
	}
	same := func(path string, a, b answer) {
		t.Helper()
		if a.status != b.status || a.etag != b.etag || a.ctype != b.ctype || !bytes.Equal(a.body, b.body) {
			t.Errorf("%s: origin %d %s %q %dB, relay %d %s %q %dB (bodies equal %v)", path,
				a.status, a.etag, a.ctype, len(a.body), b.status, b.etag, b.ctype, len(b.body), bytes.Equal(a.body, b.body))
		}
	}

	for _, path := range []string{
		fullPrefix + "5", fullPrefix + "15", fullPrefix + "20",
		blobPrefix + "15", blobPrefix + "20",
		patchPrefix + "19/20", patchPrefix + "14/20", patchPrefix + "5/20",
	} {
		fromOrigin, fromRelay := get(origin.URL+path, ""), get(relaySrv.URL+path, "")
		if fromOrigin.status != http.StatusOK {
			t.Fatalf("origin %s status %d", path, fromOrigin.status)
		}
		same(path, fromOrigin, fromRelay)
		if fromOrigin.etag != "" {
			condOrigin, condRelay := get(origin.URL+path, fromOrigin.etag), get(relaySrv.URL+path, fromOrigin.etag)
			same(path+" (conditional)", condOrigin, condRelay)
			if condRelay.status != http.StatusNotModified {
				t.Errorf("conditional %s status %d, want 304", path, condRelay.status)
			}
		}
	}
	if rl.Compactions() != 2 {
		t.Errorf("Compactions = %d, want 2 (14/20 and 5/20)", rl.Compactions())
	}

	mo, mr := get(origin.URL+ManifestPath, ""), get(relaySrv.URL+ManifestPath, "")
	if mo.status != http.StatusOK || mr.status != http.StatusOK || mo.etag != mr.etag || mo.ctype != mr.ctype {
		t.Fatalf("manifest: origin %d %s %q, relay %d %s %q", mo.status, mo.etag, mo.ctype, mr.status, mr.etag, mr.ctype)
	}
	var om, rm Manifest
	if err := json.Unmarshal(mo.body, &om); err != nil {
		t.Fatalf("origin manifest: %v", err)
	}
	if err := json.Unmarshal(mr.body, &rm); err != nil {
		t.Fatalf("relay manifest: %v", err)
	}
	if om.MinSeq != 0 || rm.MinSeq != 5 || om.Depth != 0 || rm.Depth != 1 {
		t.Errorf("min_seq/depth: origin %d/%d, relay %d/%d; want 0/0 and 5/1", om.MinSeq, om.Depth, rm.MinSeq, rm.Depth)
	}
	for _, m := range []*Manifest{&om, &rm} {
		m.MinSeq, m.Depth, m.PublishedAt = 0, 0, time.Time{}
	}
	if om != rm {
		t.Errorf("manifests differ beyond min_seq/depth/published_at:\norigin %+v\nrelay  %+v", om, rm)
	}
	same("manifest (conditional)", get(origin.URL+ManifestPath, mo.etag), get(relaySrv.URL+ManifestPath, mo.etag))

	// Below the relay's window: the origin still serves, the relay 404s
	// and counts a miss.
	misses := rl.Misses()
	for _, path := range []string{fullPrefix + "4", blobPrefix + "4", patchPrefix + "4/20"} {
		if s := get(origin.URL+path, "").status; s != http.StatusOK {
			t.Errorf("origin %s status %d, want 200", path, s)
		}
		if s := get(relaySrv.URL+path, "").status; s != http.StatusNotFound {
			t.Errorf("relay %s status %d, want 404", path, s)
		}
	}
	if got := rl.Misses() - misses; got != 3 {
		t.Errorf("Misses rose by %d, want 3", got)
	}
}
