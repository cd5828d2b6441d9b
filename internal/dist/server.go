package dist

import (
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/psl"
)

// HTTP paths served under Prefix.
const (
	// Prefix is the mount point for the distribution API.
	Prefix = "/dist/"
	// ManifestPath describes the head version.
	ManifestPath = Prefix + "manifest"
	// fullPrefix + "{seq}" serves a full snapshot blob.
	fullPrefix = Prefix + "full/"
	// patchPrefix + "{from}/{to}" serves a delta blob.
	patchPrefix = Prefix + "patch/"
	// blobPrefix + "{seq}" serves a compiled matcher blob ("PSLM").
	blobPrefix = Prefix + "blob/"
)

// source is where a serving role's versions come from: the history and
// fingerprint chain at an origin, the retained window at a relay. Each
// method validates a request (counting the role's own misses) and binds
// the render input to it, so a relay window that slides before the
// render still renders what was validated.
type source interface {
	// head describes the head version; ok is false while there is none
	// (only a relay before its first verified install).
	head() (m Manifest, ok bool)
	// snapshot resolves version seq to its fingerprint and a loader for
	// its rule list.
	snapshot(seq int) (fp string, load func() *psl.List, ok bool)
	// patch resolves the from -> to delta (0 <= from < to) to a builder.
	patch(from, to int) (build func() *Patch, ok bool)
}

// server answers the /dist/ protocol over a source; Origin and Relay
// both embed it, so a version is served byte-for-byte the same
// whichever tier it is fetched from:
//
//	GET /dist/manifest           -> JSON Manifest of the head version
//	GET /dist/full/{seq}         -> full snapshot blob ("PSLF")
//	GET /dist/blob/{seq}         -> compiled matcher blob ("PSLM")
//	GET /dist/patch/{from}/{to}  -> delta blob ("PSLD")
//
// Manifest, full and blob responses carry strong ETags (the rule-set
// fingerprint) and honour If-None-Match. Rendering a blob replays
// history, compiles a matcher or diffs two lists, so each one is
// rendered once and cached (the same discipline as fetch.Server's
// render cache).
type server struct {
	src     source
	journal *obs.Journal // records blob_rendered per seq; nil is a no-op

	patches, fulls, blobs sync.Map // render caches: span -> *renderedBlob

	manifestReqs, fullReqs, patchReqs obs.Counter
	patchBytes, fullBytes             obs.Counter
	patchRenders, fullRenders         obs.Counter
	notModified                       obs.Counter
	blobReqs, blobBytes, blobRenders  obs.Counter
}

// span keys a render cache: the version range a patch covers, or
// {seq, seq} for a single version's full or matcher blob.
type span struct{ from, to int }

type renderedBlob struct {
	once sync.Once
	data []byte
	etag string // empty for patches, which are not conditional
}

// register attaches the serving families under psl_dist_<role>_* plus
// the role-independent psl_dist_blob_* families; the help texts say what
// the role's request and byte counters count.
func (s *server) register(r *obs.Registry, role, requestsHelp, bytesHelp string) {
	fam := "psl_dist_" + role + "_"
	const rendersHelp = "Blobs rendered into the cache, by kind."
	r.MustRegister(fam+"requests_total", requestsHelp, obs.Labels{{"endpoint", "manifest"}}, &s.manifestReqs)
	r.MustRegister(fam+"requests_total", requestsHelp, obs.Labels{{"endpoint", "full"}}, &s.fullReqs)
	r.MustRegister(fam+"requests_total", requestsHelp, obs.Labels{{"endpoint", "patch"}}, &s.patchReqs)
	r.MustRegister(fam+"bytes_total", bytesHelp, obs.Labels{{"kind", "patch"}}, &s.patchBytes)
	r.MustRegister(fam+"bytes_total", bytesHelp, obs.Labels{{"kind", "full"}}, &s.fullBytes)
	r.MustRegister(fam+"renders_total", rendersHelp, obs.Labels{{"kind", "patch"}}, &s.patchRenders)
	r.MustRegister(fam+"renders_total", rendersHelp, obs.Labels{{"kind", "full"}}, &s.fullRenders)
	r.MustRegister(fam+"not_modified_total", "Conditional requests answered 304 Not Modified.", nil, &s.notModified)
	r.MustRegister("psl_dist_blob_requests_total", "Compiled matcher blob requests received.", nil, &s.blobReqs)
	r.MustRegister("psl_dist_blob_bytes_total", "Compiled matcher blob bytes served.", nil, &s.blobBytes)
	r.MustRegister("psl_dist_blob_renders_total", "Compiled matcher blobs rendered into the cache.", nil, &s.blobRenders)
}

// evictBelow drops cached renders that reference a seq below floor.
// Blobs for a given (seq, fingerprint) are immutable, so eviction is
// purely about memory: such an entry can never be served again.
func (s *server) evictBelow(floor int) {
	for _, m := range []*sync.Map{&s.patches, &s.fulls, &s.blobs} {
		m.Range(func(k, _ any) bool {
			if k.(span).from < floor {
				m.Delete(k)
			}
			return true
		})
	}
}

// ServeHTTP implements http.Handler for paths under Prefix.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == ManifestPath:
		s.serveManifest(w, r)
	case strings.HasPrefix(path, fullPrefix):
		s.fullReqs.Add(1)
		s.serveSnapshot(w, r, strings.TrimPrefix(path, fullPrefix),
			&s.fulls, &s.fullRenders, &s.fullBytes, renderFull)
	case strings.HasPrefix(path, blobPrefix):
		s.blobReqs.Add(1)
		s.serveSnapshot(w, r, strings.TrimPrefix(path, blobPrefix),
			&s.blobs, &s.blobRenders, &s.blobBytes, renderMatcherBlob)
	case strings.HasPrefix(path, patchPrefix):
		s.servePatch(w, r, strings.TrimPrefix(path, patchPrefix))
	default:
		http.NotFound(w, r)
	}
}

func (s *server) serveManifest(w http.ResponseWriter, r *http.Request) {
	s.manifestReqs.Add(1)
	m, ok := s.src.head()
	if !ok {
		http.Error(w, "relay has no verified snapshot yet", http.StatusServiceUnavailable)
		return
	}
	s.reply(w, r, `"`+m.Fingerprint+`"`, "application/json", EncodeManifest(m))
}

// serveSnapshot answers a per-version endpoint (full or blob) from its
// render cache, rendering the version on first request.
func (s *server) serveSnapshot(w http.ResponseWriter, r *http.Request, rest string,
	cache *sync.Map, renders, bytes *obs.Counter, render func(l *psl.List, seq int, fp string) []byte) {
	seq, err := strconv.Atoi(rest)
	if err != nil || seq < 0 {
		http.NotFound(w, r)
		return
	}
	fp, load, ok := s.src.snapshot(seq)
	if !ok {
		http.NotFound(w, r)
		return
	}
	rb := s.render(cache, span{seq, seq}, renders, func(rb *renderedBlob) {
		rb.data = render(load(), seq, fp)
		rb.etag = `"` + fp + `"`
	})
	bytes.Add(uint64(s.reply(w, r, rb.etag, "application/octet-stream", rb.data)))
}

func (s *server) servePatch(w http.ResponseWriter, r *http.Request, rest string) {
	s.patchReqs.Add(1)
	fromS, toS, _ := strings.Cut(rest, "/")
	from, err1 := strconv.Atoi(fromS)
	to, err2 := strconv.Atoi(toS)
	if err1 != nil || err2 != nil || from < 0 || from >= to {
		http.NotFound(w, r)
		return
	}
	build, ok := s.src.patch(from, to)
	if !ok {
		http.NotFound(w, r)
		return
	}
	rb := s.render(&s.patches, span{from, to}, &s.patchRenders, func(rb *renderedBlob) {
		rb.data = build().Encode()
	})
	s.patchBytes.Add(uint64(s.reply(w, r, "", "application/octet-stream", rb.data)))
}

// render returns the cache entry for key, filling it exactly once and
// journalling the render against the version it produces.
func (s *server) render(cache *sync.Map, key span, renders *obs.Counter, fill func(*renderedBlob)) *renderedBlob {
	v, _ := cache.LoadOrStore(key, &renderedBlob{})
	rb := v.(*renderedBlob)
	rb.once.Do(func() {
		fill(rb)
		renders.Add(1)
		s.journal.Record(key.to, obs.StageBlobRendered)
	})
	return rb
}

// reply writes data and reports the body bytes written, or answers 304
// (writing nothing) when etag is set and the request's If-None-Match
// already names it.
func (s *server) reply(w http.ResponseWriter, r *http.Request, etag, contentType string, data []byte) int {
	if etag != "" {
		if r.Header.Get("If-None-Match") == etag {
			s.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return 0
		}
		w.Header().Set("ETag", etag)
	}
	w.Header().Set("Content-Type", contentType)
	n, _ := w.Write(data)
	return n
}

func renderFull(l *psl.List, seq int, _ string) []byte { return EncodeFull(l, seq) }

// renderMatcherBlob compiles version seq's matcher into its "PSLM"
// envelope. The matcher's layout follows rule order, so it compiles
// from the rules in canonical (psl.CompareRules) order, as EncodeFull
// writes them: the bytes then depend only on (seq, fingerprint), and an
// origin compiling from history order and a relay compiling from a
// decoded or patched list serve the same blob under the same ETag.
func renderMatcherBlob(l *psl.List, seq int, fp string) []byte {
	pm := psl.NewPackedMatcher(psl.NewList(canonicalRules(l)))
	return EncodeMatcherBlob(seq, fp, pm.Marshal())
}
