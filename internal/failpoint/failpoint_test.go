package failpoint

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

// reset returns the registry to a quiet state between tests. Sites
// themselves persist (they are process-global by design); what matters
// is that nothing stays armed.
func reset(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		DisarmAll()
		SetObserve(false)
		StopTrace()
	})
	DisarmAll()
	SetObserve(false)
}

func TestParseSpec(t *testing.T) {
	good := []string{
		"",
		"a.b.c=err(1)",
		"a.b.c=err(0.5,seed=7,after=3,limit=2,errno=ENOSPC)",
		"a=crash(1);b=err(0.25);c=off",
		" a = err(1) ; b = crash(0.2,seed=9) ",
		"n=latency(0.5);n2=latency(1,d=2ms);r=reset(0.1,after=2,limit=1)",
		"t=truncate(1);b=bitflip(0.3,seed=4);f=5xx(1,burst=3,limit=2);s=stall(1,d=2s)",
		"net.origin=latency(0.2,d=1ms)|reset(0.2)|truncate(0.2)|bitflip(0.2)|5xx(0.2,burst=3)|stall(0.2,d=1ms)",
		"a=err(0.5,errno=EIO)|crash(0.1)",
		"a=reset(0.1,seed=3)|5xx(0.1,seed=3)", // agreeing seeds
	}
	for _, spec := range good {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) = %v, want nil", spec, err)
		}
	}
	bad := []string{
		"a.b.c",                           // no action
		"=err(1)",                         // no name
		"a=boom(1)",                       // unknown kind
		"a=err(2)",                        // p out of range
		"a=err(1,seed=0)",                 // zero seed reserved for "derive"
		"a=err(1,after=-1)",               // negative after
		"a=err(1,errno=EWOULDBLOCK)",      // unknown errno
		"a=crash(1,errno=EIO)",            // errno on crash
		"a=err(1,wat=1)",                  // unknown key
		"a=err(1);a=err(1)",               // duplicate site
		"a=err",                           // missing parens
		"a=reset(1,errno=EIO)",            // errno on a wire kind
		"a=err(1,d=1ms)",                  // d on err
		"a=crash(1,burst=2)",              // burst on crash
		"a=reset(1,d=1ms)",                // d only on latency and stall
		"a=stall(1,burst=2)",              // burst only on 5xx
		"a=latency(1,d=0s)",               // non-positive duration
		"a=stall(1,d=soon)",               // not a duration
		"a=5xx(1,burst=0)",                // burst below 1
		"a=reset(1)|",                     // empty alternative
		"a=reset(1)|off",                  // off is a whole action
		"a=reset(1,seed=3)|5xx(1,seed=4)", // alternatives disagree on the seed
		"a=err(NaN)",                      // probability not a number
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = nil, want error", spec)
		}
	}
}

// FuzzParse: Parse never panics, and any spec it accepts arms and
// disarms cleanly.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"a.b=err(0.5,seed=7,after=3,limit=2,errno=ENOSPC)",
		"a=crash(1);b=off",
		"n=latency(0.2,d=1ms)|reset(0.2)|truncate(0.2)|bitflip(0.2)|5xx(0.2,burst=3)|stall(0.2,d=1ms)",
		"x=5xx(1,burst=2,limit=1);y=stall(0.1,d=3s,seed=9)",
		"a=reset(1,errno=EIO)",
		"=|(,)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if _, err := Parse(spec); err != nil {
			return
		}
		defer DisarmAll()
		if err := Arm(spec, 1); err != nil {
			t.Fatalf("Parse accepted %q but Arm rejected it: %v", spec, err)
		}
	})
}

// TestWireKindAtStorageSite: a storage site whose term fires a wire kind
// returns the injected error.
func TestWireKindAtStorageSite(t *testing.T) {
	reset(t)
	fp := New("test.inject.wirekind")
	if err := Arm("test.inject.wirekind=reset(1)", 1); err != nil {
		t.Fatal(err)
	}
	if err := fp.Inject(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
}

// TestAlternativesFirstFiringWins: alternatives are tried in order, so a
// certain first alternative shadows the rest, and an exhausted one
// (limit) hands over to the next.
func TestAlternativesFirstFiringWins(t *testing.T) {
	reset(t)
	fp := New("test.inject.alts")
	if err := Arm("test.inject.alts=err(1,limit=2,errno=EIO)|err(1,errno=ENOSPC)", 1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []error{syscall.EIO, syscall.EIO, syscall.ENOSPC, syscall.ENOSPC} {
		if err := fp.Inject(); !errors.Is(err, want) {
			t.Fatalf("hit %d: Inject = %v, want %v", i, err, want)
		}
	}
}

func TestInjectErrAlwaysAndSentinels(t *testing.T) {
	reset(t)
	fp := New("test.inject.always")
	if err := fp.Inject(); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
	if err := Arm("test.inject.always=err(1,errno=ENOSPC)", 1); err != nil {
		t.Fatal(err)
	}
	err := fp.Inject()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Inject = %v, want ErrInjected", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Inject = %v, want errors.Is ENOSPC", err)
	}
	if got := fp.Triggers(); got != 1 {
		t.Fatalf("Triggers = %d, want 1", got)
	}
	Disarm("test.inject.always")
	if err := fp.Inject(); err != nil {
		t.Fatalf("re-disarmed Inject = %v, want nil", err)
	}
}

func TestAfterAndLimit(t *testing.T) {
	reset(t)
	fp := New("test.inject.window")
	if err := Arm("test.inject.window=err(1,after=2,limit=3)", 1); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 10; i++ {
		if fp.Inject() != nil {
			fired++
			if i < 2 {
				t.Fatalf("fired on hit %d, inside after window", i)
			}
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want limit=3", fired)
	}
}

func TestCrashPanicsWithCrashValue(t *testing.T) {
	reset(t)
	fp := New("test.inject.crash")
	if err := Arm("test.inject.crash=crash(1)", 1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		c, ok := r.(Crash)
		if !ok {
			t.Fatalf("recovered %#v, want Crash", r)
		}
		if c.Name != "test.inject.crash" {
			t.Fatalf("Crash.Name = %q", c.Name)
		}
	}()
	_ = fp.Inject()
	t.Fatal("Inject returned instead of panicking")
}

// TestDeterministicSchedule is the determinism contract: the same
// (spec, seed) produces a byte-identical decision transcript.
func TestDeterministicSchedule(t *testing.T) {
	reset(t)
	fps := []*Failpoint{
		New("test.sched.a"),
		New("test.sched.b"),
	}
	run := func(seed int64) string {
		DisarmAll()
		if err := Arm("test.sched.a=err(0.4);test.sched.b=err(0.7,seed=99)", seed); err != nil {
			t.Fatal(err)
		}
		StartTrace()
		for i := 0; i < 50; i++ {
			_ = fps[i%2].Inject()
		}
		return StopTrace()
	}
	first := run(42)
	if !strings.Contains(first, "err") || !strings.Contains(first, "pass") {
		t.Fatalf("schedule with p=0.4 should mix err and pass:\n%s", first)
	}
	if second := run(42); second != first {
		t.Fatalf("same seed produced different schedules:\n--- first\n%s--- second\n%s", first, second)
	}
	if other := run(43); other == first {
		t.Fatal("different base seed produced the identical schedule (per-site RNG not seeded from base)")
	}
}

func TestObserveCountsDisarmedHits(t *testing.T) {
	reset(t)
	fp := New("test.observe.site")
	before := fp.Hits()
	_ = fp.Inject() // not observing: free, uncounted
	if fp.Hits() != before {
		t.Fatal("disarmed non-observing Inject counted a hit")
	}
	SetObserve(true)
	_ = fp.Inject()
	_ = fp.Inject()
	if got := fp.Hits() - before; got != 2 {
		t.Fatalf("observed hits = %d, want 2", got)
	}
	if HitCounts()["test.observe.site"] != fp.Hits() {
		t.Fatal("HitCounts disagrees with site accessor")
	}
}

func TestArmRegistersUnknownSites(t *testing.T) {
	reset(t)
	if err := Arm("test.arm.lazysite=err(1)", 1); err != nil {
		t.Fatal(err)
	}
	// The owning component constructs its site after arming.
	fp := New("test.arm.lazysite")
	if fp.Inject() == nil {
		t.Fatal("site armed before New was not shared with the late registration")
	}
}

// TestDisarmedInjectZeroAlloc pins the production cost of a compiled-in
// site: no allocations on the disarmed path.
func TestDisarmedInjectZeroAlloc(t *testing.T) {
	reset(t)
	fp := New("test.alloc.site")
	if n := testing.AllocsPerRun(1000, func() { _ = fp.Inject() }); n != 0 {
		t.Fatalf("disarmed Inject allocates %v per call, want 0", n)
	}
	SetObserve(true)
	if n := testing.AllocsPerRun(1000, func() { _ = fp.Inject() }); n != 0 {
		t.Fatalf("observing disarmed Inject allocates %v per call, want 0", n)
	}
}

func TestTriggerCountsAndList(t *testing.T) {
	reset(t)
	New("test.counts.site")
	found := false
	for _, name := range List() {
		if name == "test.counts.site" {
			found = true
		}
	}
	if !found {
		t.Fatal("List missing a registered site")
	}
	if _, ok := TriggerCounts()["test.counts.site"]; !ok {
		t.Fatal("TriggerCounts missing a registered site")
	}
	if Triggers("no.such.site") != 0 {
		t.Fatal("Triggers of unknown site should be 0")
	}
}
