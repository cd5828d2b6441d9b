package fetch

import (
	"crypto/sha256"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// These tests pin what each wire fault at fetch.server.resp does to a
// raw-list download, as the list's consumers see it.

// listSum is the checksum of the list the test server publishes at
// ListPath, which corruption tests compare against.
func listSum() ([32]byte, int) {
	body := []byte(testHistory.Latest().Serialize())
	return sha256.Sum256(body), len(body)
}

// freshClient opens a new connection per request, so the transport
// never retries an aborted exchange and every request is one site hit.
func freshClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{DisableKeepAlives: true}}
}

func TestInjectorPassThrough(t *testing.T) {
	_, ts := newTestServer(t)
	sum, _ := listSum()
	before := fpResp.Triggers()
	// Armed with every kind, none of which ever fires.
	failResp(t, "5xx(0)|truncate(0)|bitflip(0)|stall(0)")

	resp, err := freshClient(5 * time.Second).Get(ts.URL + ListPath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read: status %d err %v", resp.StatusCode, err)
	}
	if sha256.Sum256(body) != sum {
		t.Fatalf("pass-through body altered")
	}
	if n := fpResp.Triggers() - before; n != 0 {
		t.Fatalf("triggers = %d, want 0", n)
	}
}

func TestInjector5xx(t *testing.T) {
	_, ts := newTestServer(t)
	before := fpResp.Triggers()
	failResp(t, "5xx(1,limit=1)")
	c := freshClient(5 * time.Second)

	resp, err := c.Get(ts.URL + ListPath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if n := fpResp.Triggers() - before; n != 1 {
		t.Fatalf("triggers = %d, want 1", n)
	}
	// Budget consumed: next request passes.
	resp, err = c.Get(ts.URL + ListPath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after budget = %d, want 200", resp.StatusCode)
	}
}

func TestInjectorTruncate(t *testing.T) {
	_, ts := newTestServer(t)
	_, size := listSum()
	failResp(t, "truncate(1,limit=1)")

	resp, err := freshClient(5 * time.Second).Get(ts.URL + ListPath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != int64(size) {
		t.Fatalf("Content-Length = %d, want full %d", resp.ContentLength, size)
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated read succeeded with %d bytes, want error", len(body))
	}
	if len(body) >= size {
		t.Fatalf("got %d bytes, want a short body", len(body))
	}
}

func TestInjectorCorrupt(t *testing.T) {
	_, ts := newTestServer(t)
	sum, size := listSum()
	failResp(t, "bitflip(1,limit=1)")

	resp, err := freshClient(5 * time.Second).Get(ts.URL + ListPath)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// The poison pill: everything about the response looks healthy.
	if resp.StatusCode != http.StatusOK || len(body) != size {
		t.Fatalf("status %d len %d, want healthy-looking 200 with full length", resp.StatusCode, len(body))
	}
	if sha256.Sum256(body) == sum {
		t.Fatalf("corrupt body checksum unchanged")
	}
}

func TestInjectorStall(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "stall(1,d=5s,limit=1)")

	start := time.Now()
	resp, err := freshClient(100 * time.Millisecond).Get(ts.URL + ListPath)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("stalled request succeeded, want timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("client blocked %v; timeout did not fire", elapsed)
	}
}

// TestInjectorRateAndString checks the rate extremes and that every
// wire kind a download can suffer is logged under its grammar name.
func TestInjectorRateAndString(t *testing.T) {
	_, ts := newTestServer(t)
	c := freshClient(5 * time.Second)
	status := func() int {
		resp, err := c.Get(ts.URL + ListPath)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	before := fpResp.Triggers()
	failResp(t, "5xx(1)|bitflip(1)")
	fails := 0
	for i := 0; i < 50; i++ {
		if status() != http.StatusOK {
			fails++
		}
	}
	if fails != 50 || fpResp.Triggers()-before != 50 {
		t.Fatalf("rate 1.0: %d/50 failed, %d triggers", fails, fpResp.Triggers()-before)
	}
	failResp(t, "5xx(0)|bitflip(0)")
	if status() != http.StatusOK {
		t.Fatalf("rate 0 still failing")
	}

	for _, want := range []string{"5xx", "truncate", "bitflip", "stall"} {
		spec := want + "(1,limit=1)"
		if want == "stall" {
			spec = "stall(1,d=1ms,limit=1)"
		}
		failResp(t, spec)
		failpoint.StartTrace()
		if resp, err := c.Get(ts.URL + ListPath); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		got := strings.TrimSpace(failpoint.StopTrace())
		if got != fpResp.Name()+"#0 "+want {
			t.Errorf("%s fault logged as %q", want, got)
		}
	}
}
