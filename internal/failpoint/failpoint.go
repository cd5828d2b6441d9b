// Package failpoint is a named, seeded, deterministic fault-injection
// registry in the style of etcd's gofail: code declares injection sites
// as package-level variables —
//
//	var fpRename = failpoint.New("dist.state.rename")
//
// — and consults them at the moment the corresponding real-world
// failure would strike:
//
//	if err := fpRename.Inject(); err != nil {
//	    return err
//	}
//
// A disarmed site is two atomic loads and no allocation, so sites stay
// compiled into production binaries; the zero-alloc guard in this
// package pins that. Sites are armed programmatically (Arm) or from a
// spec string, the same syntax everywhere — flag, env, fleet scenario,
// torture case:
//
//	dist.state.rename=err(1);submit.persist.sync=crash(0.2,seed=7)
//
// Every armed site draws its decisions from its own seeded RNG, so a
// given (spec, seed) pair produces the identical fault schedule on
// every run — a failing CI case ships as a spec string that reproduces
// it verbatim. The schedule itself can be captured (StartTrace /
// StopTrace) and compared byte-for-byte, which is how the torture
// harness proves determinism rather than asserting it.
//
// Eight action kinds share one decision path. Two strike storage:
//
//	err(p[,seed=N][,after=K][,limit=M][,errno=NAME])
//	    return an injected error with probability p. after skips the
//	    first K hits, limit stops after M triggers, errno wraps a real
//	    syscall errno (ENOSPC, EIO, ...) so callers exercising
//	    errors.Is paths see the genuine sentinel.
//	crash(p[,seed=N][,after=K][,limit=M])
//	    panic with a Crash value — the simulated power cut. The torture
//	    harness recovers it and reconstructs post-crash disk state; a
//	    production process armed with a crash failpoint genuinely dies,
//	    which is the point of crash testing.
//
// Six strike the wire, rendered by Wrap around an http.Handler (the
// same seed, after and limit arguments apply):
//
//	latency(p[,d=DUR])  delay d (default 50ms), then serve intact
//	reset(p)            abort the connection before any byte
//	truncate(p)         promise the full Content-Length, send half, abort
//	bitflip(p)          serve a 200 of the right length with bytes flipped
//	5xx(p[,burst=N])    answer 503 to this and the next N-1 requests
//	stall(p[,d=DUR])    write nothing for d (default 250ms), then abort
//
// A term may chain alternatives, a|b|...: each is tried in order with
// its own draw from the site's RNG and the first to fire wins, e.g.
//
//	net.origin=reset(0.01)|bitflip(0.01)|stall(0.01,d=40ms)
//
// A storage site (Inject) whose term fires a wire kind returns the
// injected error.
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// callers and tests can errors.Is an injected failure apart from a real
// one.
var ErrInjected = errors.New("failpoint: injected fault")

// Crash is the panic value a crash-armed failpoint throws: the
// simulated power cut. The torture harness recovers it; anything else
// lets it propagate (a production crash test wants the process dead).
type Crash struct {
	// Name is the failpoint that fired.
	Name string
}

func (c Crash) Error() string { return "failpoint: simulated crash at " + c.Name }

// errnos maps spec errno names to the real sentinels, so an injected
// "disk full" satisfies errors.Is(err, syscall.ENOSPC) exactly like the
// genuine article.
var errnos = map[string]error{
	"ENOSPC": syscall.ENOSPC,
	"EIO":    syscall.EIO,
	"EACCES": syscall.EACCES,
	"EINTR":  syscall.EINTR,
}

// kind is one action kind of the spec grammar.
type kind uint8

const (
	kindPass kind = iota // no fault this hit
	kindErr
	kindCrash
	kindLatency
	kindReset
	kindTruncate
	kindBitflip
	kind5xx
	kindStall
)

// kindNames spells each kind as the grammar and the trace do.
var kindNames = [...]string{"pass", "err", "crash", "latency", "reset", "truncate", "bitflip", "5xx", "stall"}

func (k kind) String() string { return kindNames[k] }

// alt is one alternative of an armed term: a kind, its probability and
// its arguments. Guarded by the owning Failpoint's mu.
type alt struct {
	kind  kind
	prob  float64
	errno error         // err: wrap this sentinel under ErrInjected
	d     time.Duration // latency, stall: how long
	burst int           // 5xx: responses one firing poisons
	after int           // skip the first `after` hits of the site
	limit int           // stop firing after `limit` fires (0 = unlimited)

	fired int
}

// term is one armed site's action: alternatives tried in order, one RNG.
// Guarded by the owning Failpoint's mu.
type term struct {
	alts []alt
	seed int64 // 0 = derive from the arm-time base seed and the name

	hits      int // Inject or Wrap calls seen while this term was armed
	burstLeft int // 503s still owed by the last 5xx firing
	rng       *rand.Rand
}

// action is one hit's decision, handed from the locked draw to the
// renderer.
type action struct {
	kind  kind
	d     time.Duration
	errno error
	flip  uint64 // bitflip: seed of the flipped positions
}

// Failpoint is one named injection site. The zero value is not usable;
// declare sites with New.
type Failpoint struct {
	name  string
	armed atomic.Bool

	mu   sync.Mutex
	term *term

	hits     atomic.Uint64 // Inject calls while armed or observing
	triggers obs.Counter
}

// Name reports the site's registered name.
func (f *Failpoint) Name() string { return f.name }

// Triggers reports how many times this site has fired (any kind, each
// 503 of a 5xx burst included) since process start.
func (f *Failpoint) Triggers() uint64 { return f.triggers.Load() }

// Hits reports Inject calls counted while the site was armed or the
// registry was observing. Disarmed, non-observing calls are not counted
// — that is what keeps them free.
func (f *Failpoint) Hits() uint64 { return f.hits.Load() }

// registry is the process-global site table. Sites register at package
// init of their owning packages (or lazily via New from an instrumented
// FS), so by the time a main registers metrics every linked-in site
// exists.
var registry = struct {
	mu     sync.Mutex
	byName map[string]*Failpoint
}{byName: make(map[string]*Failpoint)}

// observing, when set, makes even disarmed Inject calls count hits —
// the torture harness uses it to enumerate which sites a workload
// passes through. Off by default so the production fast path stays two
// atomic loads.
var observing atomic.Bool

// SetObserve toggles hit counting on disarmed sites.
func SetObserve(on bool) { observing.Store(on) }

// New returns the failpoint registered under name, creating it on first
// use. Idempotent: a site declared in two places (a package-level var
// and an instrumented FS built over the same prefix) shares one
// registration, one counter, one armed state.
func New(name string) *Failpoint {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if f, ok := registry.byName[name]; ok {
		return f
	}
	f := &Failpoint{name: name}
	registry.byName[name] = f
	return f
}

// List reports every registered site name, sorted.
func List() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Triggers reports the fire count of one site (0 for unknown names).
func Triggers(name string) uint64 {
	registry.mu.Lock()
	f := registry.byName[name]
	registry.mu.Unlock()
	if f == nil {
		return 0
	}
	return f.Triggers()
}

// TriggerCounts snapshots every site's fire count, keyed by name.
func TriggerCounts() map[string]uint64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]uint64, len(registry.byName))
	for name, f := range registry.byName {
		out[name] = f.triggers.Load()
	}
	return out
}

// HitCounts snapshots every site's hit count, keyed by name. Only
// meaningful while observing or armed (see Hits).
func HitCounts() map[string]uint64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]uint64, len(registry.byName))
	for name, f := range registry.byName {
		out[name] = f.hits.Load()
	}
	return out
}

// RegisterMetrics attaches psl_failpoint_triggers_total{name=...} for
// every registered site to reg, so armed runs are visible on /metrics.
// Call once per registry, after every site-owning package has linked in
// (any time after init works — sites register at package init).
func RegisterMetrics(reg *obs.Registry) {
	registry.mu.Lock()
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fps := make([]*Failpoint, len(names))
	for i, name := range names {
		fps[i] = registry.byName[name]
	}
	registry.mu.Unlock()
	for i, name := range names {
		reg.MustRegister("psl_failpoint_triggers_total", "Failpoint fires, by site name.",
			obs.Labels{{"name", name}}, &fps[i].triggers)
	}
}

// Inject consults the site. Disarmed (the production state) it returns
// nil after two atomic loads and zero allocations. Armed it counts the
// hit, draws the seeded decision, and either returns nil, returns an
// injected error (err, or any wire kind), or panics with Crash.
func (f *Failpoint) Inject() error {
	if !f.armed.Load() {
		if observing.Load() {
			f.hits.Add(1)
		}
		return nil
	}
	return f.inject()
}

// inject is the armed slow path of Inject.
func (f *Failpoint) inject() error {
	a := f.draw()
	switch a.kind {
	case kindPass:
		return nil
	case kindCrash:
		panic(Crash{Name: f.name})
	}
	return f.injected(a)
}

// injected builds the error an err-firing (or wire-firing) hit returns.
func (f *Failpoint) injected(a action) error {
	if a.errno != nil {
		return fmt.Errorf("%w: %s: %w", ErrInjected, f.name, a.errno)
	}
	return fmt.Errorf("%w: %s", ErrInjected, f.name)
}

// draw is the armed slow path shared by Inject and Wrap: count the hit,
// finish a 5xx burst in progress or try each alternative in order, and
// log the decision to the trace.
func (f *Failpoint) draw() action {
	f.mu.Lock()
	t := f.term
	if t == nil {
		// Disarm raced with the fast path; nothing to do.
		f.mu.Unlock()
		f.hits.Add(1)
		return action{}
	}
	hit := t.hits
	t.hits++
	var a action
	if t.burstLeft > 0 {
		t.burstLeft--
		a.kind = kind5xx
	} else {
		for i := range t.alts {
			c := &t.alts[i]
			if hit < c.after || (c.limit > 0 && c.fired >= c.limit) {
				continue
			}
			if c.prob >= 1 || t.rng.Float64() < c.prob {
				c.fired++
				a = action{kind: c.kind, d: c.d, errno: c.errno}
				switch c.kind {
				case kind5xx:
					t.burstLeft = c.burst - 1
				case kindBitflip:
					a.flip = t.rng.Uint64()
				}
				break
			}
		}
	}
	f.mu.Unlock()
	f.hits.Add(1)
	if a.kind != kindPass {
		f.triggers.Add(1)
	}
	traceEvent(f.name, hit, a.kind.String())
	return a
}

// arm installs a term on the site.
func (f *Failpoint) arm(t *term, baseSeed int64) {
	seed := t.seed
	if seed == 0 {
		// Derive a stable per-site seed so two sites armed from one spec
		// don't share a stream (which would couple their decisions).
		h := fnv.New64a()
		_, _ = h.Write([]byte(f.name))
		seed = baseSeed + int64(h.Sum64()&0x7fffffff)
	}
	t.rng = rand.New(rand.NewSource(seed))
	f.mu.Lock()
	f.term = t
	f.mu.Unlock()
	f.armed.Store(true)
}

// Disarm removes any armed action from the named site.
func Disarm(name string) {
	registry.mu.Lock()
	f := registry.byName[name]
	registry.mu.Unlock()
	if f == nil {
		return
	}
	f.armed.Store(false)
	f.mu.Lock()
	f.term = nil
	f.mu.Unlock()
}

// DisarmAll returns every site to the disarmed state.
func DisarmAll() {
	for _, name := range List() {
		Disarm(name)
	}
}

// Arm parses spec and arms every named site, registering sites the
// binary has not touched yet (arming typically happens before the
// component that owns the site is constructed). baseSeed feeds every
// term that does not carry its own seed=N. An empty spec is a no-op.
func Arm(spec string, baseSeed int64) error {
	terms, err := Parse(spec)
	if err != nil {
		return err
	}
	for name, t := range terms {
		if t == nil {
			Disarm(name)
			continue
		}
		New(name).arm(t, baseSeed)
	}
	return nil
}

// Parse validates a spec string without touching the registry,
// returning the parsed terms keyed by site name (nil term = "off").
// Exported so flag parsing can reject a bad spec before any socket is
// bound.
func Parse(spec string) (map[string]*term, error) {
	out := make(map[string]*term)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, action, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("failpoint: term %q is not name=action", part)
		}
		t, err := parseAction(strings.TrimSpace(action))
		if err != nil {
			return nil, fmt.Errorf("failpoint: %s: %w", name, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("failpoint: %s armed twice in one spec", name)
		}
		out[name] = t
	}
	return out, nil
}

// SpecHasCrash reports whether any term in spec is a crash action.
// Callers that run workloads on goroutines with no recover in reach —
// the fleet simulator arms one spec across hundreds of edges — reject
// such specs up front instead of dying mid-run; crash mode belongs to
// harnesses (internal/torture) that convert the panic into a simulated
// power cut.
func SpecHasCrash(spec string) (bool, error) {
	terms, err := Parse(spec)
	if err != nil {
		return false, err
	}
	for _, t := range terms {
		if t == nil {
			continue
		}
		for _, a := range t.alts {
			if a.kind == kindCrash {
				return true, nil
			}
		}
	}
	return false, nil
}

// parseAction parses `off` or one or more `kind(args)` alternatives
// joined by `|`. A seed= on any alternative seeds the whole site.
func parseAction(s string) (*term, error) {
	if s == "off" {
		return nil, nil
	}
	t := &term{}
	for _, part := range strings.Split(s, "|") {
		a, seed, err := parseAlt(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if seed != 0 {
			if t.seed != 0 && t.seed != seed {
				return nil, fmt.Errorf("alternatives disagree on the seed (%d vs %d)", t.seed, seed)
			}
			t.seed = seed
		}
		t.alts = append(t.alts, a)
	}
	return t, nil
}

// parseAlt parses one `kind(p[,key=value...])` alternative, returning
// any seed= separately (it belongs to the site, not the alternative).
func parseAlt(s string) (alt, int64, error) {
	name, rest, ok := strings.Cut(s, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return alt{}, 0, fmt.Errorf("action %q is not kind(args) or off", s)
	}
	i := slices.Index(kindNames[kindErr:], name)
	if i < 0 {
		return alt{}, 0, fmt.Errorf("unknown action kind %q (want one of %s)", name, strings.Join(kindNames[kindErr:], ", "))
	}
	k := kindErr + kind(i)
	a := alt{kind: k, burst: 1}
	switch k {
	case kindLatency:
		a.d = 50 * time.Millisecond
	case kindStall:
		a.d = 250 * time.Millisecond
	}
	args := strings.Split(strings.TrimSuffix(rest, ")"), ",")
	if strings.TrimSpace(args[0]) == "" {
		return alt{}, 0, fmt.Errorf("action %q is missing its probability", s)
	}
	prob, err := strconv.ParseFloat(strings.TrimSpace(args[0]), 64)
	if err != nil || !(prob >= 0 && prob <= 1) {
		return alt{}, 0, fmt.Errorf("probability %q out of [0, 1]", args[0])
	}
	a.prob = prob
	var seed int64
	for _, kv := range args[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return alt{}, 0, fmt.Errorf("argument %q is not key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n == 0 {
				return alt{}, 0, fmt.Errorf("seed %q is not a non-zero integer", val)
			}
			seed = n
		case "after":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return alt{}, 0, fmt.Errorf("after %q is not a non-negative integer", val)
			}
			a.after = n
		case "limit":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return alt{}, 0, fmt.Errorf("limit %q is not a non-negative integer", val)
			}
			a.limit = n
		case "errno":
			if k != kindErr {
				return alt{}, 0, fmt.Errorf("errno=%s is meaningless on %s", val, k)
			}
			sentinel, ok := errnos[val]
			if !ok {
				known := make([]string, 0, len(errnos))
				for name := range errnos {
					known = append(known, name)
				}
				sort.Strings(known)
				return alt{}, 0, fmt.Errorf("unknown errno %q (want one of %s)", val, strings.Join(known, ", "))
			}
			a.errno = sentinel
		case "d":
			if k != kindLatency && k != kindStall {
				return alt{}, 0, fmt.Errorf("d=%s is meaningless on %s", val, k)
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return alt{}, 0, fmt.Errorf("d %q is not a positive duration", val)
			}
			a.d = d
		case "burst":
			if k != kind5xx {
				return alt{}, 0, fmt.Errorf("burst=%s is meaningless on %s", val, k)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return alt{}, 0, fmt.Errorf("burst %q is not a positive integer", val)
			}
			a.burst = n
		default:
			return alt{}, 0, fmt.Errorf("unknown argument %q", key)
		}
	}
	return a, seed, nil
}

// trace is the armed-decision log behind the determinism contract: with
// tracing on, every armed Inject appends one line, and two runs of the
// same (spec, seed, workload) must produce byte-identical transcripts.
var trace = struct {
	mu sync.Mutex
	on bool
	b  strings.Builder
}{}

// StartTrace begins recording armed injection decisions, discarding any
// previous transcript.
func StartTrace() {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	trace.on = true
	trace.b.Reset()
}

// StopTrace ends recording and returns the transcript: one
// "name#hit decision" line per armed Inject call, in execution order.
func StopTrace() string {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	trace.on = false
	out := trace.b.String()
	trace.b.Reset()
	return out
}

func traceEvent(name string, hit int, decision string) {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	if !trace.on {
		return
	}
	trace.b.WriteString(name)
	trace.b.WriteByte('#')
	trace.b.WriteString(strconv.Itoa(hit))
	trace.b.WriteByte(' ')
	trace.b.WriteString(decision)
	trace.b.WriteByte('\n')
}
