package submit

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/httparchive"
	"repro/internal/psl"
)

// fullScanSemantic is the semantic stage as it was before it stopped
// fingerprinting both lists: the reference the incremental stage is
// checked against.
func fullScanSemantic(p *Pipeline, old, next *psl.List, added, removed []psl.Rule) Verdict {
	var findings []string
	covers := func(l *psl.List, base string) bool {
		for _, r := range l.Rules() {
			if r.Wildcard && r.Suffix == base {
				return true
			}
		}
		return false
	}
	for _, r := range added {
		if !r.Exception {
			continue
		}
		parent, ok := parentSuffix(r.Suffix)
		if !ok {
			findings = append(findings, fmt.Sprintf("exception %q cancels nothing (single label)", r.String()))
			continue
		}
		if !covers(next, parent) {
			findings = append(findings, fmt.Sprintf("exception %q has no covering wildcard *.%s in the resulting list", r.String(), parent))
		}
	}
	for _, r := range removed {
		if !r.Wildcard {
			continue
		}
		for _, e := range next.Rules() {
			if !e.Exception {
				continue
			}
			if parent, ok := parentSuffix(e.Suffix); ok && parent == r.Suffix && !covers(next, parent) {
				findings = append(findings, fmt.Sprintf("removing %q orphans exception %q", r.String(), e.String()))
			}
		}
	}
	behavior := func(r psl.Result) string {
		return fmt.Sprintf("%d/%v", r.SuffixLabels, r.Implicit)
	}
	oldM, nextM := psl.NewMapMatcher(old), psl.NewMapMatcher(next)
	for _, r := range added {
		effect := false
		for _, probe := range probesFor(r) {
			if behavior(oldM.Match(probe)) != behavior(nextM.Match(probe)) {
				effect = true
				break
			}
		}
		if !effect {
			findings = append(findings, fmt.Sprintf("rule %q is unreachable: no lookup answer changes (shadowed by a prevailing rule?)", r.String()))
		}
	}
	if old.Fingerprint() == next.Fingerprint() {
		findings = append(findings, "delta does not change the rule-set fingerprint (pure section move or no-op)")
	}
	ms := matcherSet(next)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, r := range append(append([]psl.Rule(nil), added...), removed...) {
		for _, probe := range probesFor(r) {
			ref := resultKey(ms[names[0]].Match(probe))
			for _, name := range names[1:] {
				if got := resultKey(ms[name].Match(probe)); got != ref {
					findings = append(findings, fmt.Sprintf("matcher divergence on %q: %s=%s, %s=%s",
						probe, names[0], ref, name, got))
				}
			}
		}
	}
	if len(findings) > 0 {
		return p.verdict(StageSemantic, false, "semantic validation failed", findings)
	}
	return p.verdict(StageSemantic, true,
		fmt.Sprintf("validated differentially across %d matchers", len(ms)), nil)
}

// fullScanRisk is the risk stage as it was before the population index:
// both lists answer SiteOrSelf for every population host.
func fullScanRisk(p *Pipeline, old, next *psl.List, added, removed []psl.Rule) (*RiskReport, Verdict) {
	r := &RiskReport{MaxFlipFraction: p.cfg.MaxFlipFraction}
	if p.cfg.Population != nil {
		r.Population = len(p.cfg.Population.Hosts)
		for _, h := range p.cfg.Population.Hosts {
			os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
			if os == ns {
				continue
			}
			r.SiteFlips++
			if domain.CountLabels(ns) < domain.CountLabels(os) {
				r.ScopeWidened++
			} else {
				r.ScopeNarrowed++
			}
			if len(r.SampleFlips) < p.cfg.MaxSampleFlips {
				r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("%s: %s -> %s", h, os, ns))
			}
		}
	}
	if r.Population > 0 {
		r.FlipFraction = float64(r.SiteFlips) / float64(r.Population)
	}
	for _, rule := range append(append([]psl.Rule(nil), added...), removed...) {
		for _, h := range probesFor(rule) {
			os, ns := old.SiteOrSelf(h), next.SiteOrSelf(h)
			if os == ns || len(r.SampleFlips) >= p.cfg.MaxSampleFlips {
				continue
			}
			r.SampleFlips = append(r.SampleFlips, fmt.Sprintf("probe %s: %s -> %s", h, os, ns))
		}
	}
	detail := fmt.Sprintf("%d/%d population hosts flip registrable domain (%d cookie scopes widen, %d narrow)",
		r.SiteFlips, r.Population, r.ScopeWidened, r.ScopeNarrowed)
	if r.FlipFraction > r.MaxFlipFraction {
		return r, p.verdict(StageRisk, false,
			detail+fmt.Sprintf("; flip fraction %.4f exceeds ceiling %.4f", r.FlipFraction, r.MaxFlipFraction),
			r.SampleFlips)
	}
	return r, p.verdict(StageRisk, true, detail, nil)
}

// labelPool is shared by generated rules and hosts, so submissions land
// on populated subtrees. "ab" and "ab-c" put '-' next to '.' in the
// reversed order; the xn-- label is an IDN.
var labelPool = []string{"a", "b", "ab", "ab-c", "x", "y", "com", "co", "uk", "ck", "www",
	"kobe", "jp", "city", "hosted", "test", "status", "io", "github", "xn--bcher-kva"}

// fixtureRules seeds the head list with every rule shape, including
// wildcard/exception pairs whose removal orphans the exception.
var fixtureRules = []string{
	"icann:com", "icann:co.uk", "icann:uk", "icann:jp", "icann:*.kobe.jp", "icann:!city.kobe.jp",
	"icann:ck", "icann:*.ck", "icann:!www.ck", "icann:x", "icann:ab.x", "icann:ab-c.x",
	"icann:xn--bcher-kva.x", "private:github.io", "private:*.hosted.test",
	"private:!status.hosted.test", "private:ab.y.x", "private:*.ab.x", "private:!www.ab.x",
}

// genName draws a name of one to four pool labels.
func genName(pick func(int) int) string {
	labels := make([]string, 1+pick(4))
	for i := range labels {
		labels[i] = labelPool[pick(len(labelPool))]
	}
	return strings.Join(labels, ".")
}

// genPopulation draws n hosts from the pool, then dresses some of them
// the ways raw hostnames arrive: upper case, a trailing dot, a U-label,
// an IP literal, or plain invalid.
func genPopulation(pick func(int) int, n int) []string {
	odd := []string{"192.168.0.1", "10.1.2.3", "[::1]", "::1", "", ".", "..", "a..b.x",
		"-a.com", "a b.com", "x_y.ab.x", "com.", "COM", "bücher.x", "www.BÜCHER.x",
		"ab-c.x.", "a.ab-c.x", "x.ab-c", "x.ab.y"}
	hosts := make([]string, 0, n+len(odd))
	for i := 0; i < n; i++ {
		h := genName(pick)
		switch pick(10) {
		case 0:
			h = strings.ToUpper(h)
		case 1:
			h += "."
		case 2:
			h = strings.ReplaceAll(h, "xn--bcher-kva", "bücher")
		}
		hosts = append(hosts, h)
	}
	return append(hosts, odd...)
}

// genRequest draws one to three changes against the list: removals of
// present rules, additions of drawn rules (any kind, either section),
// and section moves.
func genRequest(pick func(int) int, l *psl.List) Request {
	sections := []string{"icann", "private"}
	var req Request
	for n := 1 + pick(3); n > 0; n-- {
		rules := l.Rules()
		switch op := pick(8); {
		case op < 3 && len(rules) > 0:
			r := rules[pick(len(rules))]
			req.Changes = append(req.Changes, Change{Op: "remove", Rule: r.String(), Section: r.Section.String()})
		case op == 3 && len(rules) > 0:
			r := rules[pick(len(rules))]
			other := "private"
			if r.Section == psl.SectionPrivate {
				other = "icann"
			}
			req.Changes = append(req.Changes,
				Change{Op: "remove", Rule: r.String(), Section: r.Section.String()},
				Change{Op: "add", Rule: r.String(), Section: other})
		default:
			rule := genName(pick)
			switch pick(5) {
			case 0:
				rule = "*." + rule
			case 1:
				rule = "!" + rule
			}
			req.Changes = append(req.Changes, Change{Op: "add", Rule: rule, Section: sections[pick(2)]})
		}
	}
	return req
}

// incrementalRig is a pipeline over a generated population, without an
// origin: the stages under test read only their arguments and Config.
func incrementalRig(t testing.TB, pick func(int) int, hosts int) (*Pipeline, *psl.List) {
	var rs []psl.Rule
	for _, s := range fixtureRules {
		sec, rule, _ := strings.Cut(s, ":")
		section := psl.SectionICANN
		if sec == "private" {
			section = psl.SectionPrivate
		}
		r, err := psl.ParseRule(rule, section)
		if err != nil {
			t.Fatalf("fixture rule %q: %v", s, err)
		}
		rs = append(rs, r)
	}
	at := time.Unix(1700000000, 0)
	p := &Pipeline{cfg: Config{
		Population: &httparchive.Snapshot{Hosts: genPopulation(pick, hosts)},
		Now:        func() time.Time { return at },
	}.withDefaults()}
	return p, psl.NewList(rs)
}

// compareStages runs one submission through lint and, when lint
// passes, through the incremental and the full-scan semantic and risk
// stages, failing on any difference. It returns the list to continue
// from (the resulting list when lint passed) and the risk report.
func compareStages(t testing.TB, p *Pipeline, old *psl.List, req Request) (*psl.List, *RiskReport) {
	added, removed, next, v := p.runLint(req, old)
	if !v.Passed {
		return old, nil
	}
	sameVerdict := func(stage string, got, want Verdict) {
		if got.Passed != want.Passed || got.Detail != want.Detail || !reflect.DeepEqual(got.Findings, want.Findings) {
			t.Fatalf("%s verdicts differ on %+v\nincremental: %+v\nfull scan:   %+v", stage, req.Changes, got, want)
		}
	}
	sameVerdict(StageSemantic, p.runSemantic(old, next, added, removed), fullScanSemantic(p, old, next, added, removed))
	got, gv := p.runRisk(old, next, added, removed)
	want, wv := fullScanRisk(p, old, next, added, removed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("risk reports differ on %+v\nincremental: %+v\nfull scan:   %+v", req.Changes, got, want)
	}
	sameVerdict(StageRisk, gv, wv)
	return next, got
}

// TestIncrementalStagesMatchFullScan drives random add, remove,
// wildcard, exception and section-move submissions through the
// incremental semantic and risk stages and their full-scan originals.
// The list evolves as submissions pass lint, so later ones meet the
// shapes earlier ones left behind.
func TestIncrementalStagesMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, l := incrementalRig(t, rng.Intn, 4000)
	compared, flipped := 0, 0
	for i := 0; i < 400; i++ {
		next, risk := compareStages(t, p, l, genRequest(rng.Intn, l))
		if risk != nil {
			compared++
			if risk.SiteFlips > 0 {
				flipped++
			}
		}
		l = next
	}
	// Guard against a vacuous pass: most submissions must get past
	// lint, and many must flip population hosts.
	if compared < 150 || flipped < 50 {
		t.Fatalf("only %d submissions reached the stages and %d flipped hosts", compared, flipped)
	}
}

// FuzzRiskIncremental is the coverage-guided form of the differential
// test: the input bytes choose the population and the submissions.
//
//	go test -run '^$' -fuzz FuzzRiskIncremental -fuzztime 10s ./internal/submit/
func FuzzRiskIncremental(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("ab-c.x/ab.x remove *.ck"))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		// pick reads the input byte by byte and then, once it runs
		// out, a fixed stream, so every input is a complete case.
		k := 0
		pick := func(n int) int {
			b := byte(k * 131)
			if k < len(data) {
				b = data[k]
			}
			k++
			return int(b) % n
		}
		p, l := incrementalRig(t, pick, 200)
		for i := 0; i < 4; i++ {
			l, _ = compareStages(t, p, l, genRequest(pick, l))
		}
	})
}
