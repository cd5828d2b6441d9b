package resilience

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRecoverConvertsPanicTo500(t *testing.T) {
	var m HTTPMetrics
	h := Recover(&m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("body %q is not the JSON error document (err %v)", rec.Body.String(), err)
	}
	if m.Panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", m.Panics.Load())
	}
}

func TestRecoverPassesThroughCleanRequests(t *testing.T) {
	var m HTTPMetrics
	h := Recover(&m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "ok" {
		t.Fatalf("got %d %q, want 418 ok", rec.Code, rec.Body.String())
	}
	if m.Panics.Load() != 0 {
		t.Fatal("panics counted on a clean request")
	}
}

// TestRecoverRepanicsAbortHandler: ErrAbortHandler is the sanctioned
// mid-body abort (used by failpoint.Wrap's wire faults) and must
// flow through untouched, uncounted.
func TestRecoverRepanicsAbortHandler(t *testing.T) {
	var m HTTPMetrics
	h := Recover(&m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", v)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	if m.Panics.Load() != 0 {
		t.Fatal("ErrAbortHandler counted as a panic")
	}
}

// TestRecoverAbortsStartedResponse: once bytes are on the wire a 500
// is impossible, so the middleware must abort the connection (counted)
// rather than let a truncated body masquerade as complete.
func TestRecoverAbortsStartedResponse(t *testing.T) {
	var m HTTPMetrics
	h := Recover(&m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
		panic("kaboom mid-body")
	}))
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler", v)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	if m.Panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", m.Panics.Load())
	}
}

func TestDeadlineBoundsRequestContext(t *testing.T) {
	var m HTTPMetrics
	h := Deadline(20*time.Millisecond, &m.DeadlineExceeded, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
			t.Error("handler context never expired")
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if m.DeadlineExceeded.Load() != 1 {
		t.Fatalf("deadline-exceeded counter = %d, want 1", m.DeadlineExceeded.Load())
	}
}

// TestDeadlineHonorsPropagatedHeader: a caller advertising a smaller
// budget than the server max shrinks the deadline; a larger one is
// clamped to the server max.
func TestDeadlineHonorsPropagatedHeader(t *testing.T) {
	var m HTTPMetrics
	var got time.Duration
	h := Deadline(time.Hour, &m.DeadlineExceeded, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dl, ok := r.Context().Deadline()
		if !ok {
			t.Error("no deadline on request context")
			return
		}
		got = time.Until(dl)
	}))

	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(DeadlineHeader, "50")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got > 50*time.Millisecond || got <= 0 {
		t.Fatalf("remaining budget %v, want <= 50ms from header", got)
	}

	req = httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(DeadlineHeader, "7200000") // 2h, beyond the server max
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got > time.Hour {
		t.Fatalf("remaining budget %v, want clamped to the 1h server max", got)
	}

	// Garbage and non-positive budgets fall back to the server max.
	for _, v := range []string{"not-a-number", "-5", "0"} {
		req = httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header.Set(DeadlineHeader, v)
		h.ServeHTTP(httptest.NewRecorder(), req)
		if got <= 50*time.Millisecond {
			t.Fatalf("header %q shrank the deadline to %v", v, got)
		}
	}
}

func TestDeadlineZeroMaxNoHeaderIsUnbounded(t *testing.T) {
	var m HTTPMetrics
	h := Deadline(0, &m.DeadlineExceeded, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); ok {
			t.Error("unexpected deadline with max 0 and no header")
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

func TestPropagateDeadline(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	PropagateDeadline(req)
	if req.Header.Get(DeadlineHeader) != "" {
		t.Fatal("header stamped without a context deadline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req = httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
	PropagateDeadline(req)
	v := req.Header.Get(DeadlineHeader)
	if v == "" || strings.HasPrefix(v, "-") {
		t.Fatalf("propagated budget %q, want a positive millisecond count", v)
	}
}

func TestHardenServerFillsOnlyZeroFields(t *testing.T) {
	srv := HardenServer(&http.Server{})
	if srv.ReadHeaderTimeout == 0 || srv.ReadTimeout == 0 || srv.WriteTimeout == 0 ||
		srv.IdleTimeout == 0 || srv.MaxHeaderBytes == 0 {
		t.Fatalf("HardenServer left a zero field: %+v", srv)
	}
	// pprof's 30s CPU profile must fit inside the write timeout.
	if srv.WriteTimeout <= 30*time.Second {
		t.Fatalf("WriteTimeout %v too small for a 30s pprof profile", srv.WriteTimeout)
	}
	custom := HardenServer(&http.Server{ReadHeaderTimeout: 10 * time.Second})
	if custom.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("HardenServer overwrote an explicit ReadHeaderTimeout: %v", custom.ReadHeaderTimeout)
	}
}

func TestHTTPMetricsRegister(t *testing.T) {
	reg := obs.NewRegistry()
	var m HTTPMetrics
	m.Register(reg)
	out := reg.Render()
	for _, want := range []string{"psl_http_panics_total 0", "psl_resilience_deadline_exceeded_total 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
