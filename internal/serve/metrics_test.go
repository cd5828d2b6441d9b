package serve

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/obs"
)

// TestServiceMetricsExposition drives traffic through an instrumented
// service and checks the registry renders a valid document whose
// counters agree with the service's own stats.
func TestServiceMetricsExposition(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 12})
	svc := NewFromHistory(h, h.Len()-1, Options{})
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)

	// One miss, then hits; one invalid host; one versioned lookup (which
	// exercises the compile cache); one swap.
	if _, err := svc.Lookup("www.example.com"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.Lookup("www.example.com"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Lookup("192.168.0.1"); err == nil {
		t.Fatal("IP lookup did not error")
	}
	if _, err := svc.LookupAt("www.example.com", 3); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetVersion(2); err != nil {
		t.Fatal(err)
	}

	doc := reg.Render()
	if _, err := obs.ValidateExposition(strings.NewReader(doc)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, doc)
	}
	for _, want := range []string{
		`psl_serve_lookups_total{matcher="packed",result="hit"} 5`,
		`psl_serve_lookups_total{matcher="packed",result="miss"} 2`,
		`psl_serve_lookups_total{matcher="packed",result="error"} 1`,
		`psl_serve_swaps_total 2`,
		"psl_serve_lookup_duration_seconds_bucket",
		"psl_serve_cache_bytes",
		"psl_serve_inflight_requests 0",
		"psl_compile_total",
		"psl_compile_duration_seconds_count",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q\n%s", want, doc)
		}
	}
}

// TestServiceVersionedLookupCompileOnce pins the compile-cache wiring:
// repeated versioned lookups of the same version, plus a SetVersion to
// it, must compile that version exactly once.
func TestServiceVersionedLookupCompileOnce(t *testing.T) {
	h := history.Generate(history.Config{Seed: history.DefaultSeed, Versions: 12})
	svc := NewFromHistory(h, h.Len()-1, Options{})
	if svc.compiled == nil {
		t.Fatal("default service has no compile cache")
	}
	for i := 0; i < 4; i++ {
		if _, err := svc.LookupAt("www.example.com", 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.SetVersion(5); err != nil {
		t.Fatal(err)
	}
	if got := svc.compiled.Compiles(); got != 1 {
		t.Errorf("version 5 compiled %d times, want 1", got)
	}
	// SetVersion must still bump the swap generation.
	if svc.Swaps() != 2 {
		t.Errorf("Swaps = %d, want 2", svc.Swaps())
	}
	if svc.Current().Seq != 5 {
		t.Errorf("current seq = %d, want 5", svc.Current().Seq)
	}
}

// TestMetricsDisabled pins that DisableMetrics keeps the service fully
// functional with no timing layer.
func TestMetricsDisabled(t *testing.T) {
	svc := New(fixture(t), -1, Options{DisableMetrics: true})
	if svc.m != nil {
		t.Fatal("timing layer present despite DisableMetrics")
	}
	if _, err := svc.Lookup("www.example.com"); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := svc.CacheStats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want 0/1", hits, misses)
	}
	// Registration still works — the duration families are simply absent.
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	if doc := reg.Render(); strings.Contains(doc, "psl_serve_lookup_duration_seconds") {
		t.Error("duration family exposed with metrics disabled")
	}
}
