package fetch

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/obs"
)

// TestServerMetrics drives the raw-list server through first render,
// render-cache hits, a conditional 304 and an injected failure, then
// checks the registered families agree and the exposition is valid.
func TestServerMetrics(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 8})
	srv := NewServer(h)
	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	failpoint.RegisterMetrics(reg)
	injectedBefore := fpResp.Triggers()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path, etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// First request renders; the next two hit the render cache.
	first := get(ListPath, "")
	if first.Code != 200 {
		t.Fatalf("GET list: %d", first.Code)
	}
	get(ListPath, "")
	// Conditional revalidation with the served ETag short-circuits to 304
	// (and still counts as a render-cache hit — the body was reused).
	if rec := get(ListPath, first.Header().Get("ETag")); rec.Code != 304 {
		t.Fatalf("conditional GET: %d, want 304", rec.Code)
	}
	// A distinct version renders separately.
	if rec := get("/v/0", ""); rec.Code != 200 {
		t.Fatalf("GET /v/0: %d", rec.Code)
	}
	// One injected failure.
	failResp(t, "5xx(1,limit=1)")
	if rec := get(ListPath, ""); rec.Code != 503 {
		t.Fatalf("injected failure: %d, want 503", rec.Code)
	}

	doc := reg.Render()
	if _, err := obs.ValidateExposition(strings.NewReader(doc)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, doc)
	}
	for _, want := range []string{
		"psl_fetch_requests_total 5",
		fmt.Sprintf(`psl_failpoint_triggers_total{name="fetch.server.resp"} %d`, injectedBefore+1),
		"psl_fetch_renders_total 2",
		"psl_fetch_render_cache_hits_total 2",
		"psl_fetch_not_modified_total 1",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q\n%s", want, doc)
		}
	}
}
