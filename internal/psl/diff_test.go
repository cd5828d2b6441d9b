package psl

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/domain"
)

func TestDiffListsMoved(t *testing.T) {
	old := MustParse(`
// ===BEGIN ICANN DOMAINS===
com
co.uk
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
// ===END PRIVATE DOMAINS===
`)
	new := MustParse(`
// ===BEGIN ICANN DOMAINS===
com
github.io
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
blogspot.com
fastly.net
// ===END PRIVATE DOMAINS===
`)
	d := DiffLists(old, new)
	if got, want := len(d.Added), 1; got != want {
		t.Fatalf("Added = %v, want 1 entry", d.Added)
	}
	if d.Added[0].Suffix != "fastly.net" {
		t.Errorf("Added[0] = %v, want fastly.net", d.Added[0])
	}
	if got, want := len(d.Removed), 1; got != want {
		t.Fatalf("Removed = %v, want 1 entry", d.Removed)
	}
	if d.Removed[0].Suffix != "co.uk" {
		t.Errorf("Removed[0] = %v, want co.uk", d.Removed[0])
	}
	if got, want := len(d.Moved), 1; got != want {
		t.Fatalf("Moved = %v, want 1 entry", d.Moved)
	}
	if d.Moved[0].Suffix != "github.io" || d.Moved[0].Section != SectionICANN {
		t.Errorf("Moved[0] = %+v, want github.io in icann section", d.Moved[0])
	}
}

func TestDiffListsNoMoveWhenSectionsEqual(t *testing.T) {
	l := MustParse("// ===BEGIN ICANN DOMAINS===\ncom\nnet\n// ===END ICANN DOMAINS===\n")
	d := DiffLists(l, l.Clone())
	if len(d.Added)+len(d.Removed)+len(d.Moved) != 0 {
		t.Fatalf("diff of identical lists = %+v, want empty", d)
	}
}

func TestFingerprintOfSortedMatchesListFingerprint(t *testing.T) {
	l := MustParse(`
// ===BEGIN ICANN DOMAINS===
com
co.uk
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
// ===END PRIVATE DOMAINS===
`)
	rules := make([]Rule, len(l.Rules()))
	copy(rules, l.Rules())
	sort.Slice(rules, func(i, j int) bool { return CompareRules(rules[i], rules[j]) < 0 })
	if got, want := FingerprintOfSorted(rules), l.Fingerprint(); got != want {
		t.Fatalf("FingerprintOfSorted = %s, want %s", got, want)
	}
	if got, want := FingerprintOfSorted(nil), NewList(nil).Fingerprint(); got != want {
		t.Fatalf("FingerprintOfSorted(nil) = %s, want empty-list fingerprint %s", got, want)
	}
}

func TestCompareRulesZeroMeansSameKey(t *testing.T) {
	a := Rule{Suffix: "ck", Wildcard: true, Section: SectionICANN}
	b := Rule{Suffix: "ck", Wildcard: true, Section: SectionPrivate}
	if CompareRules(a, b) != 0 {
		t.Errorf("CompareRules ignores Section: want 0, got %d", CompareRules(a, b))
	}
	c := Rule{Suffix: "www.ck", Exception: true}
	if CompareRules(a, c) == 0 {
		t.Errorf("distinct keys must not compare equal")
	}
}

// TestCompareRulesMatchesReverse checks the in-place comparator against
// its definition, strings.Compare of the materialised reversed
// suffixes with rank (plain < wildcard < exception) breaking ties. The
// alphabet includes '-' and '.', whose order is the trap a label-wise
// comparison falls into, and yields empty labels and equal suffixes.
func TestCompareRulesMatchesReverse(t *testing.T) {
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	want := func(a, b Rule) int {
		if c := strings.Compare(domain.Reverse(a.Suffix), domain.Reverse(b.Suffix)); c != 0 {
			return c
		}
		return sign(rank(a) - rank(b))
	}
	kinds := []Rule{{}, {Wildcard: true}, {Exception: true}}
	check := func(a, b Rule) {
		t.Helper()
		if got, w := sign(CompareRules(a, b)), want(a, b); got != w {
			t.Fatalf("CompareRules(%v, %v) = %d, want %d", a, b, got, w)
		}
	}
	check(Rule{Suffix: "x.ab-c"}, Rule{Suffix: "x.ab.y"})
	check(Rule{Suffix: "ab-c.x"}, Rule{Suffix: "y.ab.x"})
	rng := rand.New(rand.NewSource(1))
	name := func() string {
		const alphabet = "ab0-."
		b := make([]byte, rng.Intn(7))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 200000; i++ {
		a, b := kinds[rng.Intn(3)], kinds[rng.Intn(3)]
		a.Suffix = name()
		if rng.Intn(8) == 0 {
			b.Suffix = a.Suffix
		} else {
			b.Suffix = name()
		}
		check(a, b)
	}
}

// TestCompareRulesZeroAlloc guards the canonical comparator every sort
// of a rule set runs: it must not allocate.
func TestCompareRulesZeroAlloc(t *testing.T) {
	pairs := [][2]Rule{
		{{Suffix: "city.kobe.jp"}, {Suffix: "www.city.kobe.jp", Exception: true}},
		{{Suffix: "x.ab-c"}, {Suffix: "x.ab.y"}},
		{{Suffix: "ck", Wildcard: true}, {Suffix: "ck"}},
		{{Suffix: "a.b.c.d.e.com"}, {Suffix: "a.b.c.d.e.com"}},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(200, func() { CompareRules(p[0], p[1]) }); n != 0 {
			t.Errorf("CompareRules(%v, %v) allocates %.1f/op, want 0", p[0], p[1], n)
		}
	}
}
