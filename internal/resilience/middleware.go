package resilience

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// DeadlineHeader carries the caller's remaining request budget in
// integer milliseconds. The Deadline middleware honors it (clamped by
// the server's own maximum) and PropagateDeadline stamps it onto
// outgoing requests, so a timeout set at the first hop shrinks at every
// hop behind it instead of each layer waiting its full local maximum.
const DeadlineHeader = "X-Request-Deadline-Ms"

// HTTPMetrics bundles the counters the HTTP middleware maintains; one
// instance per server, registered once.
type HTTPMetrics struct {
	Panics           obs.Counter
	DeadlineExceeded obs.Counter
}

// Register attaches the middleware families to a registry.
func (m *HTTPMetrics) Register(reg *obs.Registry) {
	reg.MustRegister("psl_http_panics_total",
		"Handler panics recovered by the resilience middleware.", nil, &m.Panics)
	reg.MustRegister("psl_resilience_deadline_exceeded_total",
		"Requests whose context deadline expired while being served.", nil, &m.DeadlineExceeded)
}

// startedWriter records whether the handler has written anything, so
// the recovery path knows if a clean 500 is still possible.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach Flush/Hijack and friends on
// the underlying writer.
func (w *startedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Recover converts a handler panic into a 500 plus a panics-counter
// increment instead of a dead connection with a stack trace in the log.
// http.ErrAbortHandler is re-panicked untouched — it is the sanctioned
// way to abort a response mid-body (failpoint.Wrap's wire faults rely
// on it) and net/http suppresses its stack trace. If the response
// has already started when a panic arrives, the connection is aborted
// (counted first): a truncated body must not look like a complete one.
func Recover(panics *obs.Counter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &startedWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			panics.Add(1)
			if sw.started {
				panic(http.ErrAbortHandler)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"internal server error"}` + "\n"))
		}()
		next.ServeHTTP(sw, r)
	})
}

// Deadline bounds every request's context: the effective deadline is
// the smaller of the server's max and the caller's propagated
// DeadlineHeader budget. max <= 0 means no server-side bound (the
// header, if present, still applies). Handlers that run past the
// deadline are counted; the context does the actual cancelling for any
// handler that watches it.
func Deadline(max time.Duration, exceeded *obs.Counter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := max
		if h := r.Header.Get(DeadlineHeader); h != "" {
			if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
				if hd := time.Duration(ms) * time.Millisecond; d <= 0 || hd < d {
					d = hd
				}
			}
		}
		if d <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		if ctx.Err() == context.DeadlineExceeded {
			exceeded.Add(1)
		}
	})
}

// PropagateDeadline stamps the remaining budget of req's context onto
// its DeadlineHeader, so the server can shed work the client has
// already given up on. No-op when the context has no deadline.
func PropagateDeadline(req *http.Request) {
	dl, ok := req.Context().Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1 // expired budgets still propagate as "basically none"
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// HardenServer fills in the slow-client protections on any http.Server
// field left at its dangerous zero value (which means "wait forever"):
// ReadHeaderTimeout 5s, ReadTimeout 1m, WriteTimeout 2m (long enough
// for a 30s pprof profile or a full-list download), IdleTimeout 2m,
// MaxHeaderBytes 1MB. Explicitly set fields are left alone.
func HardenServer(srv *http.Server) *http.Server {
	if srv.ReadHeaderTimeout == 0 {
		srv.ReadHeaderTimeout = 5 * time.Second
	}
	if srv.ReadTimeout == 0 {
		srv.ReadTimeout = time.Minute
	}
	if srv.WriteTimeout == 0 {
		srv.WriteTimeout = 2 * time.Minute
	}
	if srv.IdleTimeout == 0 {
		srv.IdleTimeout = 2 * time.Minute
	}
	if srv.MaxHeaderBytes == 0 {
		srv.MaxHeaderBytes = 1 << 20
	}
	return srv
}
