package dist

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/psl"
)

// RelayOptions tunes a Relay. Zero values get defaults.
type RelayOptions struct {
	// Retain is how many verified snapshots the relay keeps for serving
	// downstream. The window bounds both how far back full blobs reach
	// and how stale an edge can be and still patch forward (advertised
	// as the manifest's min_seq). Default 64.
	Retain int
}

func (o RelayOptions) withDefaults() RelayOptions {
	if o.Retain <= 0 {
		o.Retain = 64
	}
	return o
}

// relaySnap is one retained verified snapshot. The fingerprint arrived
// with the blob that produced the list and was verified on install, so
// the relay never recomputes it.
type relaySnap struct {
	list *psl.List
	seq  int
	fp   string
}

// Relay re-serves the /dist/ protocol downstream of a Replica: it
// follows an upstream origin (or another relay — depth is unbounded),
// retains a sliding window of the verified snapshots the replica
// installs, and answers manifest/full/blob/patch requests from that
// window so edges fan out without touching the origin. It serves
// through the same server as an origin, so every response for a
// retained version is byte-identical to the origin's.
//
// The relay is also where delta compaction lives. Its patch endpoint is
// not limited to the hops the relay itself took upstream: any retained
// (from, to) pair is served by diffing the two snapshots directly, so N
// upstream patches coalesce into one downstream blob. The result is an
// ordinary "PSLD" patch — wire-format identical to an origin's, pinned
// by the same verified fingerprint chain — so edges need no new code
// path to benefit. Compacted spans (to-from > 1) are counted
// separately.
//
// Requests outside the window 404 (a pair the relay skipped past while
// catching up, or an edge staler than min_seq); an empty window —
// before the first verified install — answers 503 so a booting relay
// reads as "not ready" rather than "empty history". Edges recover from
// both through their normal fallback ladder.
//
// ServeHTTP is safe for concurrent use alongside the replica's poll
// loop.
type Relay struct {
	server
	rep  *Replica
	opts RelayOptions

	mu   sync.RWMutex
	ring []relaySnap // ascending seq; at most opts.Retain entries

	compactions, misses, unavailable obs.Counter // beside the server's own
}

// NewRelay builds a relay over rep. The replica feeds the snapshot
// window itself — every verified install and a RestoreState — before
// its hooks run, so the hooks stay free for the caller. Call before rep
// starts RestoreState, Bootstrap or Run.
func NewRelay(rep *Replica, opts RelayOptions) *Relay {
	rl := &Relay{server: server{journal: rep.opts.Journal}, rep: rep, opts: opts.withDefaults()}
	rl.src = rl
	rep.relay = rl
	return rl
}

// Replica exposes the upstream-facing replica (for Run, Bootstrap,
// health, and metrics registration).
func (rl *Relay) Replica() *Replica { return rl.rep }

// Seed installs a trusted local snapshot into the serving window,
// fingerprint computed locally. The replica already feeds the window
// from every verified install and from RestoreState; Seed is for a
// snapshot that arrived some other way (SetState, or a test building a
// window directly).
func (rl *Relay) Seed(l *psl.List, seq int) {
	rl.push(relaySnap{list: l, seq: seq, fp: l.Fingerprint()})
}

// push appends a snapshot to the window, trims it to Retain, and evicts
// render-cache entries that fell below the new floor.
func (rl *Relay) push(s relaySnap) {
	rl.mu.Lock()
	// Keep the ring strictly ascending: a re-install of a seq already
	// present (or a head rewind in tests) drops the suffix it replaces.
	for len(rl.ring) > 0 && rl.ring[len(rl.ring)-1].seq >= s.seq {
		rl.ring = rl.ring[:len(rl.ring)-1]
	}
	rl.ring = append(rl.ring, s)
	if len(rl.ring) > rl.opts.Retain {
		rl.ring = append([]relaySnap(nil), rl.ring[len(rl.ring)-rl.opts.Retain:]...)
	}
	floor := rl.ring[0].seq
	rl.mu.Unlock()
	rl.evictBelow(floor)
}

// snapAt finds the retained snapshot at exactly seq.
func (rl *Relay) snapAt(seq int) (relaySnap, bool) {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	for i := len(rl.ring) - 1; i >= 0; i-- {
		if rl.ring[i].seq == seq {
			return rl.ring[i], true
		}
		if rl.ring[i].seq < seq {
			break
		}
	}
	return relaySnap{}, false
}

// window reports the retained [min, head] seq range, ok=false when
// nothing is retained yet.
func (rl *Relay) window() (head relaySnap, minSeq int, ok bool) {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	if len(rl.ring) == 0 {
		return relaySnap{}, 0, false
	}
	return rl.ring[len(rl.ring)-1], rl.ring[0].seq, true
}

// Retained reports how many snapshots the window currently holds.
func (rl *Relay) Retained() int {
	rl.mu.RLock()
	defer rl.mu.RUnlock()
	return len(rl.ring)
}

// Compactions reports patches served that coalesced more than one
// upstream version step into a single downstream blob.
func (rl *Relay) Compactions() uint64 { return rl.compactions.Load() }

// Misses reports requests for versions outside the retained window.
func (rl *Relay) Misses() uint64 { return rl.misses.Load() }

// Manifest describes the relay's serving head. ok is false while the
// window is empty.
func (rl *Relay) Manifest() (Manifest, bool) {
	head, minSeq, ok := rl.window()
	if !ok {
		return Manifest{}, false
	}
	m := Manifest{
		Seq:         head.seq,
		Fingerprint: head.fp,
		Version:     head.list.Version,
		Date:        head.list.Date.UTC(),
		Rules:       head.list.Len(),
		MinSeq:      minSeq,
		Depth:       rl.rep.UpstreamDepth() + 1,
	}
	// Carry the origin's publish stamp downstream unchanged, so every
	// tier's propagation journal measures from the same clock.
	if at, ok := rl.rep.PublishedAt(head.seq); ok {
		m.PublishedAt = at.UTC()
	}
	return m, true
}

// RegisterMetrics attaches the relay's downstream-serving families to a
// registry. The upstream-facing families are the wrapped replica's —
// register those separately via Replica().RegisterMetrics.
func (rl *Relay) RegisterMetrics(r *obs.Registry) {
	rl.register(r, "relay", "Downstream distribution requests received, by endpoint.",
		"Blob bytes served downstream, by transfer kind.")
	r.MustRegister("psl_dist_relay_compactions_total", "Patches served that coalesced more than one version step.",
		nil, &rl.compactions)
	r.MustRegister("psl_dist_relay_window_misses_total", "Requests for versions outside the retained window.",
		nil, &rl.misses)
	r.MustRegister("psl_dist_relay_unavailable_total", "Requests answered 503 before the first verified install.",
		nil, &rl.unavailable)
	r.MustRegister("psl_dist_relay_retained_snapshots", "Verified snapshots currently in the serving window.",
		nil, obs.GaugeFunc(func() float64 { return float64(rl.Retained()) }))
	r.MustRegister("psl_dist_relay_head_seq", "Version sequence currently served as head, -1 before the first install.",
		nil, obs.GaugeFunc(func() float64 {
			if head, _, ok := rl.window(); ok {
				return float64(head.seq)
			}
			return -1
		}))
}

// head, snapshot and patch make the relay the server's source: the
// retained window. Each binds the snapshots it found, so a render that
// runs after the window slid still renders what was validated. Renders
// are local rather than proxied: the snapshots were fingerprint-verified
// on install, so a locally compiled blob or diffed patch carries the
// same promise, and a relay whose edges never ask for one never pays it.
func (rl *Relay) head() (Manifest, bool) {
	m, ok := rl.Manifest()
	if !ok {
		rl.unavailable.Add(1)
	}
	return m, ok
}

func (rl *Relay) snapshot(seq int) (string, func() *psl.List, bool) {
	s, ok := rl.snapAt(seq)
	if !ok {
		rl.misses.Add(1)
		return "", nil, false
	}
	return s.fp, func() *psl.List { return s.list }, true
}

// patch serves any retained (from, to) pair by diffing the two verified
// snapshots: the compaction described on Relay.
func (rl *Relay) patch(from, to int) (func() *Patch, bool) {
	f, okF := rl.snapAt(from)
	t, okT := rl.snapAt(to)
	if !okF || !okT {
		rl.misses.Add(1)
		return nil, false
	}
	if to-from > 1 {
		rl.compactions.Add(1)
	}
	return func() *Patch {
		d := psl.DiffLists(f.list, t.list)
		return &Patch{
			FromSeq:   f.seq,
			ToSeq:     t.seq,
			FromFP:    f.fp,
			ToFP:      t.fp,
			ToVersion: t.list.Version,
			ToDate:    t.list.Date,
			Removed:   d.Removed,
			Added:     d.Added,
			Moved:     d.Moved,
		}
	}, true
}
