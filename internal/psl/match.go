package psl

import (
	"strings"

	"repro/internal/domain"
)

// Result describes the outcome of matching a domain name against a list.
type Result struct {
	// SuffixLabels is the number of rightmost labels of the name that
	// form its public suffix.
	SuffixLabels int
	// Rule is the prevailing rule. Meaningless when Implicit is true.
	Rule Rule
	// Implicit reports that no explicit rule matched and the implicit
	// "*" rule prevailed (the rightmost label is the suffix).
	Implicit bool
}

// Matcher finds the prevailing rule for a domain name, per the algorithm
// at publicsuffix.org/list/:
//
//  1. A domain matches a rule when the rule's labels equal the rightmost
//     labels of the domain; a wildcard label matches exactly one label.
//  2. If more than one rule matches, an exception rule prevails.
//  3. Otherwise the rule with the most labels prevails.
//  4. If no rule matches, the implicit rule "*" prevails.
//
// Names passed to Match must already be normalized ASCII (lowercased,
// A-labels, no trailing dot); List.PublicSuffix and friends handle that.
type Matcher interface {
	// Match returns the prevailing result for the name. The name is
	// assumed non-empty, normalized ASCII.
	Match(name string) Result
}

// mapEntry records which rule kinds exist for one literal suffix key.
type mapEntry struct {
	normal    bool
	wildcard  bool
	exception bool
	// sections and rule copies for reporting.
	normalRule    Rule
	wildcardRule  Rule
	exceptionRule Rule
}

// MapMatcher indexes rules in a hash map keyed by literal suffix. It is
// the default matcher: O(labels) lookups with one map probe per suffix of
// the name.
type MapMatcher struct {
	m map[string]*mapEntry
}

// NewMapMatcher builds a MapMatcher over the list's rules.
func NewMapMatcher(l *List) *MapMatcher {
	m := make(map[string]*mapEntry, l.Len())
	get := func(k string) *mapEntry {
		e := m[k]
		if e == nil {
			e = &mapEntry{}
			m[k] = e
		}
		return e
	}
	for _, r := range l.Rules() {
		e := get(r.Suffix)
		switch {
		case r.Exception:
			e.exception = true
			e.exceptionRule = r
		case r.Wildcard:
			e.wildcard = true
			e.wildcardRule = r
		default:
			e.normal = true
			e.normalRule = r
		}
	}
	return &MapMatcher{m: m}
}

// Match implements Matcher.
func (mm *MapMatcher) Match(name string) Result {
	best := Result{SuffixLabels: 1, Implicit: true}
	totalLabels := domain.CountLabels(name)
	// Walk suffixes from shortest (rightmost label) to longest (whole
	// name), tracking the label count of each.
	labels := 0
	for i := len(name); i > 0; {
		j := strings.LastIndexByte(name[:i], '.')
		suffix := name[j+1:]
		labels++
		i = j
		e, ok := mm.m[suffix]
		if !ok {
			continue
		}
		if e.exception {
			// Exceptions prevail over everything; the public suffix
			// is the exception's labels minus the leftmost.
			return Result{SuffixLabels: labels - 1, Rule: e.exceptionRule}
		}
		if e.normal && labels >= best.SuffixLabels {
			best = Result{SuffixLabels: labels, Rule: e.normalRule}
		}
		if e.wildcard && totalLabels > labels && labels+1 >= best.SuffixLabels {
			best = Result{SuffixLabels: labels + 1, Rule: e.wildcardRule}
		}
	}
	return best
}

// trieNode is one label of the TrieMatcher, keyed right-to-left.
type trieNode struct {
	children map[string]*trieNode
	entry    mapEntry
}

// TrieMatcher indexes rules in a label trie walked right-to-left. It
// probes one small map per label and, unlike MapMatcher, never hashes
// long suffix strings, which pays off on deep names.
type TrieMatcher struct {
	root *trieNode
}

// NewTrieMatcher builds a TrieMatcher over the list's rules.
func NewTrieMatcher(l *List) *TrieMatcher {
	root := &trieNode{}
	for _, r := range l.Rules() {
		n := root
		name := r.Suffix
		for i := len(name); i > 0; {
			j := strings.LastIndexByte(name[:i], '.')
			label := name[j+1 : i]
			i = j
			if n.children == nil {
				n.children = make(map[string]*trieNode)
			}
			child := n.children[label]
			if child == nil {
				child = &trieNode{}
				n.children[label] = child
			}
			n = child
		}
		switch {
		case r.Exception:
			n.entry.exception = true
			n.entry.exceptionRule = r
		case r.Wildcard:
			n.entry.wildcard = true
			n.entry.wildcardRule = r
		default:
			n.entry.normal = true
			n.entry.normalRule = r
		}
	}
	return &TrieMatcher{root: root}
}

// Match implements Matcher.
func (tm *TrieMatcher) Match(name string) Result {
	best := Result{SuffixLabels: 1, Implicit: true}
	totalLabels := domain.CountLabels(name)
	n := tm.root
	labels := 0
	for i := len(name); i > 0 && n != nil; {
		j := strings.LastIndexByte(name[:i], '.')
		label := name[j+1 : i]
		i = j
		n = n.children[label]
		if n == nil {
			break
		}
		labels++
		e := &n.entry
		if e.exception {
			return Result{SuffixLabels: labels - 1, Rule: e.exceptionRule}
		}
		if e.normal && labels >= best.SuffixLabels {
			best = Result{SuffixLabels: labels, Rule: e.normalRule}
		}
		if e.wildcard && totalLabels > labels && labels+1 >= best.SuffixLabels {
			best = Result{SuffixLabels: labels + 1, Rule: e.wildcardRule}
		}
	}
	return best
}

// LinearMatcher checks every rule on every lookup. It exists as the
// obviously-correct baseline for the property tests and the ablation
// benchmarks; do not use it for bulk work.
type LinearMatcher struct {
	rules []Rule
}

// NewLinearMatcher builds a LinearMatcher over the list's rules.
func NewLinearMatcher(l *List) *LinearMatcher {
	return &LinearMatcher{rules: l.Rules()}
}

// Match implements Matcher.
func (lm *LinearMatcher) Match(name string) Result {
	best := Result{SuffixLabels: 1, Implicit: true}
	exc := Result{SuffixLabels: -1}
	for _, r := range lm.rules {
		if !r.Match(name) {
			continue
		}
		if r.Exception {
			// When several exceptions match, the shortest prevails, as
			// in the other matchers' walk from the rightmost label.
			if n := domain.CountLabels(r.Suffix) - 1; exc.SuffixLabels < 0 || n < exc.SuffixLabels {
				exc = Result{SuffixLabels: n, Rule: r}
			}
			continue
		}
		n := domain.CountLabels(r.Suffix)
		if r.Wildcard {
			n++
		}
		if n >= best.SuffixLabels && (best.Implicit || n > best.SuffixLabels || preferRule(r, best.Rule)) {
			best = Result{SuffixLabels: n, Rule: r}
		}
	}
	if exc.SuffixLabels >= 0 {
		return exc
	}
	return best
}

// LookupAll returns every explicit rule of the list that matches the
// given normalized ASCII name, in list order — a diagnostic surface for
// tools explaining why a name received its suffix (the prevailing rule
// is whichever Match selects).
func (l *List) LookupAll(name string) []Rule {
	var out []Rule
	for _, r := range l.Rules() {
		if r.Match(name) {
			out = append(out, r)
		}
	}
	return out
}

// preferRule breaks ties between two same-length prevailing rules
// deterministically (normal over wildcard), matching the map and trie
// matchers, which probe normal entries first.
func preferRule(a, b Rule) bool {
	return !a.Wildcard && b.Wildcard
}
