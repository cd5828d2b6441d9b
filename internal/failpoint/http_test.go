package failpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// payload is a fixed 4 KB body the wire tests compare against.
var payload = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// wireServer serves payload behind site name on a real socket.
// Per-kind wire tests through a forwarding proxy live in
// internal/chaos.
func wireServer(t *testing.T, name string) *httptest.Server {
	t.Helper()
	up := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(payload)
	})
	ts := httptest.NewServer(New(name).Wrap(up))
	t.Cleanup(ts.Close)
	return ts
}

// freshClient opens a new connection per request: the transport never
// silently retries an aborted exchange on a fresh connection, so every
// request is exactly one hit on the site.
func freshClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{DisableKeepAlives: true}}
}

// fetch performs one GET and reads the whole body.
func fetch(c *http.Client, url string) (*http.Response, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestWrapDeterministicSchedule is the replay contract for network
// sites: a fixed sequential request sequence under one spec and seed
// yields a byte-identical decision transcript and byte-identical
// response bodies, a different seed a different transcript, and every
// decision shows its client-visible effect.
func TestWrapDeterministicSchedule(t *testing.T) {
	reset(t)
	const (
		name = "test.wire.sched"
		spec = name + "=latency(0.2,d=1ms)|reset(0.2)|truncate(0.2)|bitflip(0.2)|5xx(0.2,burst=3)|stall(0.2,d=1ms)"
		n    = 200
	)
	ts := wireServer(t, name)
	run := func(seed int64) (transcript string, bodies []byte) {
		DisarmAll()
		if err := Arm(spec, seed); err != nil {
			t.Fatal(err)
		}
		c := freshClient(5 * time.Second)
		type result struct {
			resp    *http.Response
			body    []byte
			err     error
			elapsed time.Duration
		}
		results := make([]result, n)
		StartTrace()
		for i := range results {
			start := time.Now()
			resp, body, err := fetch(c, ts.URL+"/a")
			results[i] = result{resp, body, err, time.Since(start)}
			bodies = append(bodies, body...)
		}
		transcript = StopTrace()
		lines := strings.Split(strings.TrimSuffix(transcript, "\n"), "\n")
		if len(lines) != n {
			t.Fatalf("transcript has %d lines for %d requests", len(lines), n)
		}
		run503 := 0
		for i, line := range lines {
			decision := line[strings.LastIndexByte(line, ' ')+1:]
			r := results[i]
			if err := effect(decision, r.resp, r.body, r.err, r.elapsed); err != nil {
				t.Fatalf("request %d, decision %s: %v", i, decision, err)
			}
			if decision == "5xx" {
				run503++
				continue
			}
			if run503%3 != 0 {
				t.Fatalf("request %d ends a run of %d 503s, want whole bursts of 3", i, run503)
			}
			run503 = 0
		}
		return transcript, bodies
	}
	first, firstBodies := run(42)
	for _, kind := range []string{"pass", "latency", "reset", "truncate", "bitflip", "5xx", "stall"} {
		if !strings.Contains(first, " "+kind+"\n") {
			t.Errorf("%d requests never took %s:\n%s", n, kind, first)
		}
	}
	second, secondBodies := run(42)
	if second != first {
		t.Fatalf("same seed produced different transcripts:\n--- first\n%s--- second\n%s", first, second)
	}
	if !bytes.Equal(firstBodies, secondBodies) {
		t.Fatal("same seed produced different response bodies")
	}
	if other, _ := run(43); other == first {
		t.Fatal("different seed produced the identical transcript")
	}
}

// effect checks that one request showed the client-visible effect of
// the decision the site logged for it.
func effect(decision string, resp *http.Response, body []byte, err error, elapsed time.Duration) error {
	intact := err == nil && resp != nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, payload)
	switch decision {
	case "pass":
		if !intact {
			return fmt.Errorf("not an intact 200 (err %v)", err)
		}
	case "latency":
		if !intact || elapsed < time.Millisecond {
			return fmt.Errorf("not an intact 200 after >= 1ms (err %v, %v)", err, elapsed)
		}
	case "reset":
		if resp != nil || err == nil {
			return fmt.Errorf("got a response (err %v)", err)
		}
	case "stall":
		if resp != nil || err == nil || elapsed < time.Millisecond {
			return fmt.Errorf("not aborted after >= 1ms without a response (err %v, %v)", err, elapsed)
		}
	case "truncate":
		if resp == nil || resp.ContentLength != int64(len(payload)) || !errors.Is(err, io.ErrUnexpectedEOF) || len(body) >= len(payload) {
			return fmt.Errorf("not a short body ending in unexpected EOF against the full Content-Length (err %v, %d bytes)", err, len(body))
		}
	case "bitflip":
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != len(payload) || bytes.Equal(body, payload) {
			return fmt.Errorf("not a same-length 200 with different bytes (err %v)", err)
		}
	case "5xx":
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("not a 503 (err %v)", err)
		}
	default:
		return fmt.Errorf("unexpected decision")
	}
	return nil
}

// TestWrapDisarmedZeroAlloc pins the wire fast path: a disarmed site
// adds no allocation to the request it passes through.
func TestWrapDisarmedZeroAlloc(t *testing.T) {
	reset(t)
	h := New("test.wire.alloc").Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	var w nopWriter
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); n != 0 {
		t.Fatalf("disarmed Wrap allocates %v per request, want 0", n)
	}
}

type nopWriter struct{}

func (nopWriter) Header() http.Header         { return nil }
func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriter) WriteHeader(int)             {}
