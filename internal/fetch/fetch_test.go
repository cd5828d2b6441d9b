package fetch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/history"
	"repro/internal/psl"
	"repro/internal/resilience"
)

var testHistory = history.Generate(history.Config{Seed: history.DefaultSeed})

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(testHistory)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// failResp arms the raw-list failpoint with a wire action (e.g.
// "5xx(1)") until heal or the end of the test.
func failResp(t *testing.T, action string) {
	t.Helper()
	if err := failpoint.Arm(fpResp.Name()+"="+action, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(heal)
}

// heal disarms the raw-list failpoint.
func heal() { failpoint.Disarm(fpResp.Name()) }

func TestServerServesLatest(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL + ListPath)
	l, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := testHistory.Latest()
	if l.Len() != want.Len() {
		t.Errorf("fetched %d rules, want %d", l.Len(), want.Len())
	}
	if !l.Date.Equal(want.Date.UTC().Truncate(time.Second)) {
		t.Errorf("list date = %v, want %v", l.Date, want.Date)
	}
}

func TestServerServesSpecificVersion(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL + "/v/100")
	l, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != testHistory.Meta(100).Rules {
		t.Errorf("v100 has %d rules, want %d", l.Len(), testHistory.Meta(100).Rules)
	}
}

func TestServerNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/nope", "/v/999999", "/v/abc"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s -> %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestClientETagCaching(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.URL + ListPath)
	if _, err := c.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := c.Fetch(context.Background())
	if !errors.Is(err, ErrNotModified) {
		t.Errorf("second fetch err = %v, want ErrNotModified", err)
	}
}

func TestClientSeesNewVersionAfterChange(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetCurrent(500)
	c := NewClient(ts.URL + ListPath)
	l1, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.SetCurrent(testHistory.Len() - 1)
	l2, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch after version bump: %v", err)
	}
	if l2.Len() <= l1.Len() {
		t.Errorf("new version has %d rules, old %d", l2.Len(), l1.Len())
	}
}

func TestFailureInjection(t *testing.T) {
	_, ts := newTestServer(t)
	before := fpResp.Triggers()
	failResp(t, "5xx(1)")
	c := NewClient(ts.URL + ListPath)
	if _, err := c.Fetch(context.Background()); err == nil {
		t.Fatal("fetch succeeded under 100% failure injection")
	}
	if fpResp.Triggers() == before {
		t.Error("no failures recorded")
	}
}

func TestUpdaterFallbackSemantics(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1)")
	embedded := testHistory.ListAt(300)
	u := NewUpdater(embedded, NewClient(ts.URL+ListPath), StrategyOnStartup, 0)
	u.Start(context.Background())
	if !u.UsingFallback() {
		t.Fatal("update under failure injection should leave the fallback in place")
	}
	if u.Current().Len() != embedded.Len() {
		t.Error("current list is not the embedded copy")
	}
	if _, failures := u.Stats(); failures != 1 {
		t.Errorf("failures = %d, want 1", failures)
	}

	// The network heals; the next refresh swaps in the fresh list.
	heal()
	var swapped bool
	u.OnSwap = func(old, fresh *psl.List) { swapped = old.Len() != fresh.Len() }
	if err := u.Refresh(context.Background()); err != nil {
		t.Fatalf("refresh after heal: %v", err)
	}
	if u.UsingFallback() {
		t.Error("still on fallback after successful refresh")
	}
	if !swapped {
		t.Error("OnSwap not invoked")
	}
}

func TestUpdaterFixedNeverRefreshes(t *testing.T) {
	_, ts := newTestServer(t)
	embedded := testHistory.ListAt(100)
	u := NewUpdater(embedded, NewClient(ts.URL+ListPath), StrategyFixed, 0)
	if err := u.Refresh(context.Background()); err == nil {
		t.Error("fixed updater refreshed")
	}
	if !u.UsingFallback() || u.Current().Len() != embedded.Len() {
		t.Error("fixed updater changed its list")
	}
}

func TestUpdaterAtBuild(t *testing.T) {
	_, ts := newTestServer(t)
	embedded := testHistory.ListAt(100)
	u := NewUpdater(embedded, NewClient(ts.URL+ListPath), StrategyAtBuild, 0)
	if u.UsingFallback() {
		t.Error("build-time update did not run")
	}
	if u.Current().Len() != testHistory.Latest().Len() {
		t.Error("build-time update fetched the wrong version")
	}
}

func TestUpdaterPeriodic(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetCurrent(200)
	embedded := testHistory.ListAt(100)
	u := NewUpdater(embedded, NewClient(ts.URL+ListPath), StrategyPeriodic, 10*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); u.Start(ctx) }()

	// Wait for the initial refresh, then publish a newer version and
	// wait for the periodic tick to pick it up.
	deadline := time.After(5 * time.Second)
	for u.UsingFallback() {
		select {
		case <-deadline:
			t.Fatal("initial periodic refresh never happened")
		case <-time.After(time.Millisecond):
		}
	}
	s.SetCurrent(testHistory.Len() - 1)
	want := testHistory.Latest().Len()
	for u.Current().Len() != want {
		select {
		case <-deadline:
			t.Fatalf("periodic refresh never picked up the new version (have %d rules, want %d)",
				u.Current().Len(), want)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	wg.Wait()
	if successes, _ := u.Stats(); successes < 2 {
		t.Errorf("successes = %d, want >= 2", successes)
	}
}

func TestRefreshWithRetry(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1,limit=2)")
	embedded := testHistory.ListAt(100)
	u := NewUpdater(embedded, NewClient(ts.URL+ListPath), StrategyOnStartup, 0)
	if err := u.RefreshWithRetry(context.Background(), 4, time.Millisecond); err != nil {
		t.Fatalf("retry should eventually succeed: %v", err)
	}
	if u.UsingFallback() {
		t.Error("still on fallback after successful retry")
	}
	succ, fail := u.Stats()
	if succ != 1 || fail != 2 {
		t.Errorf("stats = %d/%d, want 1 success, 2 failures", succ, fail)
	}
}

func TestRefreshWithRetryExhausted(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1,limit=10)")
	u := NewUpdater(testHistory.ListAt(100), NewClient(ts.URL+ListPath), StrategyOnStartup, 0)
	if err := u.RefreshWithRetry(context.Background(), 3, time.Millisecond); err == nil {
		t.Fatal("retry should exhaust")
	}
	if !u.UsingFallback() {
		t.Error("fallback should remain in effect")
	}
}

func TestRefreshWithRetryContextCancel(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1,limit=10)")
	u := NewUpdater(testHistory.ListAt(100), NewClient(ts.URL+ListPath), StrategyOnStartup, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := u.RefreshWithRetry(ctx, 5, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestClientBreakerFastFails pins the breaker wiring: once the
// configured threshold of transport failures is reached, further
// Fetch calls return resilience.ErrOpen without touching the network.
func TestClientBreakerFastFails(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1)")
	c := NewClient(ts.URL + ListPath)
	c.Breaker = resilience.NewBreaker(resilience.BreakerOptions{
		FailureThreshold: 3,
		OpenFor:          time.Hour,
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Fetch(context.Background()); err == nil {
			t.Fatalf("fetch %d succeeded under 100%% failure injection", i)
		}
	}
	failuresBefore := fpResp.Triggers()
	for i := 0; i < 5; i++ {
		_, err := c.Fetch(context.Background())
		if !errors.Is(err, resilience.ErrOpen) {
			t.Fatalf("fetch after threshold: err = %v, want ErrOpen", err)
		}
	}
	if failuresAfter := fpResp.Triggers(); failuresAfter != failuresBefore {
		t.Errorf("open breaker still reached the server: failures %d -> %d",
			failuresBefore, failuresAfter)
	}
	if c.Breaker.FastFails() != 5 {
		t.Errorf("fast fails = %d, want 5", c.Breaker.FastFails())
	}
}

// TestClientBreakerRecovers heals the server, waits out the open
// window, and checks a half-open probe closes the circuit again.
func TestClientBreakerRecovers(t *testing.T) {
	_, ts := newTestServer(t)
	failResp(t, "5xx(1)")
	c := NewClient(ts.URL + ListPath)
	c.Breaker = resilience.NewBreaker(resilience.BreakerOptions{
		FailureThreshold: 2,
		OpenFor:          5 * time.Millisecond,
		HalfOpenProbes:   1,
	})
	for i := 0; i < 2; i++ {
		if _, err := c.Fetch(context.Background()); err == nil {
			t.Fatal("fetch succeeded under failure injection")
		}
	}
	if c.Breaker.State() != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", c.Breaker.State())
	}
	heal()
	time.Sleep(10 * time.Millisecond)
	if _, err := c.Fetch(context.Background()); err != nil {
		t.Fatalf("probe fetch after heal: %v", err)
	}
	if c.Breaker.State() != resilience.BreakerClosed {
		t.Errorf("breaker state = %v, want closed after successful probe", c.Breaker.State())
	}
}

// TestClientRequestTimeout bounds a hung origin with the per-attempt
// timeout and checks the deadline is advertised downstream.
func TestClientRequestTimeout(t *testing.T) {
	var sawDeadline atomic.Bool
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(resilience.DeadlineHeader) != "" {
			sawDeadline.Store(true)
		}
		<-r.Context().Done()
	}))
	defer hung.Close()

	c := NewClient(hung.URL)
	c.RequestTimeout = 20 * time.Millisecond
	start := time.Now()
	_, err := c.Fetch(context.Background())
	if err == nil {
		t.Fatal("fetch against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fetch took %v, want the 20ms request timeout to cut it short", elapsed)
	}
	if !sawDeadline.Load() {
		t.Errorf("request did not carry the %s header", resilience.DeadlineHeader)
	}
}

func TestListAge(t *testing.T) {
	embedded := testHistory.ListAt(0)
	u := NewUpdater(embedded, nil, StrategyFixed, 0)
	now := history.MeasurementDate
	age := u.ListAge(now)
	days := int(age.Hours() / 24)
	if days != testHistory.AgeOfVersion(0) {
		t.Errorf("age = %d days, want %d", days, testHistory.AgeOfVersion(0))
	}
}

func TestServerHead(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Head(ts.URL + ListPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Errorf("HEAD: status %d, etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
}
