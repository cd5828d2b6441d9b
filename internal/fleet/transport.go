// Package fleet is a seeded in-process simulator for the multi-tier
// /dist/ replication fan-out: one origin, a tier of relays, and
// thousands of edge replicas, wired together without sockets so a
// single test process can drive fleet-scale topologies. Poll jitter,
// churn, and wire faults are all derived from one master seed, and the
// run emits a report whose deterministic view is byte-stable across
// runs with the same seed — the property the deflake guard diffs.
package fleet

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strings"
	"sync/atomic"
)

// HandlerTransport is an http.RoundTripper that dispatches requests to
// an in-process http.Handler — no sockets, no ports, no listener
// backlog limiting how many simulated nodes one process can hold. It
// meters exchanges and response bytes, which is how the simulator
// measures true per-tier egress: the transport wrapped directly around
// a tier's handler sees exactly the bytes that tier served.
//
// Handler panics with http.ErrAbortHandler — the idiom failpoint.Wrap
// and real net/http servers use to cut a connection — are translated to
// what a socket client would observe: a transport error when nothing
// was written yet (connection reset), or a body that delivers the
// written prefix and then fails with io.ErrUnexpectedEOF (mid-body
// truncation). Any other panic is a bug in the handler and propagates.
type HandlerTransport struct {
	h     http.Handler
	reqs  atomic.Uint64
	bytes atomic.Uint64
}

// NewHandlerTransport wraps h.
func NewHandlerTransport(h http.Handler) *HandlerTransport {
	return &HandlerTransport{h: h}
}

// Requests reports exchanges started through this transport.
func (t *HandlerTransport) Requests() uint64 { return t.reqs.Load() }

// Bytes reports total response-body bytes produced by the handler —
// the tier's egress as measured at the wire it would have written to.
func (t *HandlerTransport) Bytes() uint64 { return t.bytes.Load() }

// CloseIdleConnections is a no-op; it exists so Replica.Run's drain
// path finds the method here instead of reaching for the process-wide
// default transport.
func (t *HandlerTransport) CloseIdleConnections() {}

// recorder is the minimal in-memory http.ResponseWriter the transport
// hands to handlers. It tracks whether anything was written so an abort
// can be classified as reset-before-response vs truncated-mid-body.
type recorder struct {
	hdr   http.Header
	buf   bytes.Buffer
	code  int
	wrote bool
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(p)
}

// Flush implements http.Flusher; failpoint.Wrap flushes before
// aborting a truncated body. Everything is in memory, so it's a no-op.
func (r *recorder) Flush() {}

// errAfter yields err once a wrapped reader is exhausted, modelling a
// connection cut mid-body.
type errAfter struct{ err error }

func (e errAfter) Read([]byte) (int, error) { return 0, e.err }

// RoundTrip implements http.RoundTripper.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	t.reqs.Add(1)
	rec := &recorder{hdr: make(http.Header), code: http.StatusOK}
	aborted := false
	func() {
		defer func() {
			if p := recover(); p != nil {
				if err, ok := p.(error); ok && err == http.ErrAbortHandler {
					aborted = true
					return
				}
				panic(p)
			}
		}()
		t.h.ServeHTTP(rec, req)
	}()
	if aborted && !rec.wrote {
		return nil, fmt.Errorf("fleet: %s %s: connection reset by handler", req.Method, req.URL.Path)
	}
	body := rec.buf.Bytes()
	t.bytes.Add(uint64(len(body)))
	var rd io.Reader = bytes.NewReader(body)
	if aborted {
		rd = io.MultiReader(rd, errAfter{io.ErrUnexpectedEOF})
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.hdr,
		Body:          io.NopCloser(rd),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// forward serves each request by round-tripping it through rt, so a
// fault site wrapped around it sits above rt's egress meter: the meter
// counts what the tier's own handler served, never an injected 503 or
// a truncated copy.
func forward(rt http.RoundTripper) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := rt.RoundTrip(r)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		maps.Copy(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			panic(http.ErrAbortHandler)
		}
	})
}

// hostRouter dispatches by the request's host, the addressing scheme
// that lets one shared transport front a whole tier of simulated nodes
// ("relay3.fleet" → relay 3's handler), mirroring how a fleet of edges
// shares one connection pool against many relay hostnames.
type hostRouter map[string]http.Handler

func (m hostRouter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if host == "" {
		host = r.URL.Host
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	h, ok := m[host]
	if !ok {
		http.Error(w, fmt.Sprintf("fleet: no node at %q", host), http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}
