package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/psl"
	"repro/internal/submit"
)

// Input generation. The serving workloads draw from the reference
// corpus (the history and httparchive snapshot pslharm generates by
// default); --seed picks the request stream and submission sequence.
// The program under test only ever sees the generated hostnames and
// requests.

// refSeed is the reference generator seed.
const refSeed = history.DefaultSeed

// corpus is the reference list history and one httparchive snapshot's
// hostnames.
type corpus struct {
	h       *history.History
	head    *psl.List
	headSeq int
	hosts   []string
}

// loadCorpus generates the reference history and the snapshot at the
// given scale. Only the hostnames are kept.
func loadCorpus(scale float64) *corpus {
	h := history.Generate(history.Config{Seed: refSeed})
	snap := httparchive.Generate(httparchive.Config{Seed: refSeed, Scale: scale}, h)
	return &corpus{h: h, head: h.Latest(), headSeq: h.Len() - 1, hosts: snap.Hosts}
}

// splitmix is a stateless 64-bit mixer, so row i's variant depends on
// (seed, i) alone and not on which connection sends it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- lookup-hot stream ----------------------------------------------------

const (
	// zipfS is the Zipf exponent of lookup popularity.
	zipfS = 1.1
	// lookupDraws is the length of the pre-drawn request sequence; the
	// connections start at evenly spaced offsets and wrap.
	lookupDraws = 1 << 21
	// warmDraws is how many lookups warm the cache before timing.
	warmDraws = 1 << 18
)

// lookupStream is a seeded Zipf request sequence over a host pool,
// stored as pool indices. Popularity rank k belongs to the k-th host of
// a seed-shuffled pool.
type lookupStream struct {
	byRank []int32 // rank → pool index
	draws  []int32 // timed requests, as pool indices
	warm   []int32 // cache-warming requests, as pool indices
}

func newLookupStream(nHosts int, seed int64) *lookupStream {
	rng := rand.New(rand.NewSource(seed ^ 0x6c6f6f6b)) // "look"
	s := &lookupStream{byRank: make([]int32, nHosts)}
	for i, p := range rng.Perm(nHosts) {
		s.byRank[i] = int32(p)
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(nHosts-1))
	draw := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = s.byRank[z.Uint64()]
		}
		return out
	}
	s.warm = draw(warmDraws)
	s.draws = draw(lookupDraws)
	return s
}

// at is connection conn's i-th request (of conns connections).
func (s *lookupStream) at(conn, conns, i int) int32 {
	off := conn * (len(s.draws) / conns)
	return s.draws[(off+i)%len(s.draws)]
}

// --- batch-cold stream -----------------------------------------------------

// batchRows is the number of hostnames in one /v1/batch request.
const batchRows = 256

// uLabels are the internationalized leading labels rows may carry.
var uLabels = []string{"bücher", "münchen", "españa", "日本語", "пример", "façade"}

// freshProbe is the leading label used to test whether a fresh label
// changes a host's answer.
const freshProbe = "zq0fresh"

// batchStream is an endless cold row sequence: first every pool host
// once in seed-shuffled order, then rounds over the label-stable hosts
// with a fresh leading label per round ("f1.", "f2.", …), so no row
// repeats within a run. One row in 16 is rewritten to mixed case or a
// trailing dot, and one in 16 gains an internationalized leading label.
// A host is label-stable when a fresh leading label leaves its answer
// unchanged (it is no public suffix and no wildcard sits directly below
// it); only those rows get a label, which is what lets each row's
// expected answer be the one precomputed for its pool host.
type batchStream struct {
	seed     uint64
	hosts    []string
	order    []int32 // round 0
	labelled []int32 // rounds >= 1
	stable   []bool
}

func newBatchStream(hosts []string, stable []bool, seed int64) (*batchStream, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x62617463)) // "batc"
	s := &batchStream{seed: uint64(seed), hosts: hosts, stable: stable, order: make([]int32, len(hosts))}
	for i, p := range rng.Perm(len(hosts)) {
		s.order[i] = int32(p)
	}
	for _, idx := range s.order {
		if stable[idx] {
			s.labelled = append(s.labelled, idx)
		}
	}
	if len(s.labelled) == 0 {
		return nil, errors.New("batch stream: no label-stable hosts")
	}
	return s, nil
}

// row returns row i's hostname and the pool index whose answer it
// must equal.
func (s *batchStream) row(i int64) (string, int32) {
	var (
		idx    int32
		prefix string
	)
	if n0 := int64(len(s.order)); i < n0 {
		idx = s.order[i]
	} else {
		j := i - n0
		idx = s.labelled[j%int64(len(s.labelled))]
		prefix = "f" + strconv.FormatInt(j/int64(len(s.labelled))+1, 36) + "."
	}
	h := s.hosts[idx]
	switch x := splitmix(s.seed ^ uint64(i)*0x2545f4914f6cdd1d); x & 15 {
	case 0:
		if x&16 == 0 {
			h = mixCase(h)
		} else {
			h += "."
		}
	case 1:
		if s.stable[idx] {
			prefix = uLabels[(x>>5)%uint64(len(uLabels))] + "." + prefix
		}
	}
	return prefix + h, idx
}

// batch fills hosts and idx with the rows of batch b.
func (s *batchStream) batch(b int64, hosts []string, idx []int32) {
	for r := range hosts {
		hosts[r], idx[r] = s.row(b*batchRows + int64(r))
	}
}

// mixCase upper-cases every other ASCII letter.
func mixCase(h string) string {
	b := []byte(h)
	for i := 0; i < len(b); i += 2 {
		if c := b[i]; c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// stableHosts reports, per host, whether a fresh leading label leaves
// its expected answer unchanged.
func stableHosts(l *psl.List, hosts []string, exp []uint64) ([]bool, error) {
	probed := make([]string, len(hosts))
	for i, h := range hosts {
		probed[i] = freshProbe + "." + h
	}
	withLabel, err := expectedAll(l, probed)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(hosts))
	for i := range hosts {
		out[i] = withLabel[i] == exp[i]
	}
	return out, nil
}

// checkBatchStream recomputes, straight from the list, the answers of
// n sampled rows that carry a leading label or a rewrite, and checks
// they equal the precomputed pool answer the run will compare against.
func checkBatchStream(l *psl.List, s *batchStream, exp []uint64, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	span := int64(len(s.order)) * 4
	for k := 0; k < n; k++ {
		i := rng.Int63n(span)
		h, idx := s.row(i)
		d, err := expectedDigest(l, h)
		if err != nil {
			return err
		}
		if d != exp[idx] {
			return fmt.Errorf("batch stream: row %d %q answers differently from pool host %q", i, h, s.hosts[idx])
		}
	}
	return nil
}

// --- publish-under-load submissions ---------------------------------------

// plannedSub is one submission of the writer's sequence.
type plannedSub struct {
	req   submit.Request
	owner string // the _psl TXT owner name
	seq   int    // the version it publishes as
	// probe is a host under the new rule; probeExp its answer once the
	// version is installed.
	probe    string
	probeExp uint64
	// flips is how many pool hosts change registrable domain.
	flips int
}

// override is a pool host's answer from a version on.
type override struct {
	seq    int
	digest uint64
}

// submissionPlan is the writer's sequence and the answers it changes.
type submissionPlan struct {
	subs      []plannedSub
	overrides map[int32]override
}

// expectAt is the digest pool host idx must answer with at version seq.
func (p *submissionPlan) expectAt(exp []uint64, idx int32, seq int) uint64 {
	if o, ok := p.overrides[idx]; ok && seq >= o.seq {
		return o.digest
	}
	return exp[idx]
}

// maxFlipHosts bounds how many pool hosts one promoted domain may
// cover, keeping every submission far below the risk stage's ceiling.
const maxFlipHosts = 200

// planSubmissions draws n one-rule additions. Even submissions add a
// tenant suffix under a fresh private domain, which flips no host;
// odd ones promote the registrable domain of a popular pool host to a
// private suffix, which flips every pool host under it, so the risk
// stage has real work to report and the lookup stream sees answers
// change across versions.
func planSubmissions(c *corpus, exp []uint64, byRank []int32, seed int64, n int) (*submissionPlan, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x73756266)) // "subf"
	plan := &submissionPlan{overrides: make(map[int32]override)}

	// Candidate domains come from the 4096 most popular hosts.
	var candidates []string
	seen := map[string]bool{}
	for _, r := range rng.Perm(min(4096, len(byRank))) {
		h := c.hosts[byRank[r]]
		d, err := c.head.Site(h)
		if err != nil || seen[d] || strings.HasSuffix(d, ".example") {
			continue
		}
		seen[d] = true
		candidates = append(candidates, d)
	}
	under := make(map[string][]int32, len(candidates))
	for i, h := range c.hosts {
		if d := c.head.SiteOrSelf(h); seen[d] {
			under[d] = append(under[d], int32(i))
		}
	}

	l := c.head
	next := 0
	for k := 0; k < n; k++ {
		var (
			rule  string
			probe string
			hosts []int32
		)
		if k%2 == 0 {
			rule = fmt.Sprintf("%s%d.pb%d.example", brand(rng), k, seed&0xffff)
			probe = "probe." + rule
		} else {
			for ; next < len(candidates); next++ {
				if m := len(under[candidates[next]]); m > 0 && m <= maxFlipHosts {
					break
				}
			}
			if next == len(candidates) {
				return nil, errors.New("submission plan: ran out of candidate domains")
			}
			rule = candidates[next]
			hosts = under[rule]
			next++
			probe = "probe." + rule
		}
		r, err := psl.ParseRule(rule, psl.SectionPrivate)
		if err != nil {
			return nil, fmt.Errorf("submission plan: %w", err)
		}
		l = l.WithRules(r)
		seq := c.headSeq + 1 + k
		for _, idx := range hosts {
			d, err := expectedDigest(l, c.hosts[idx])
			if err != nil {
				return nil, err
			}
			plan.overrides[idx] = override{seq: seq, digest: d}
		}
		pd, err := expectedDigest(l, probe)
		if err != nil {
			return nil, err
		}
		req := submit.Request{
			Changes: []submit.Change{{Op: "add", Rule: rule, Section: "private"}},
			Contact: "bench@pb.example",
		}
		plan.subs = append(plan.subs, plannedSub{
			req: req, owner: submit.AuthOwner(r), seq: seq,
			probe: probe, probeExp: pd, flips: len(hosts),
		})
	}

	// Cross-check: under the final list, every pool host answers as
	// the plan says (nothing outside the promoted domains moved).
	final, err := expectedAll(l, c.hosts)
	if err != nil {
		return nil, err
	}
	last := c.headSeq + n
	for i := range c.hosts {
		if final[i] != plan.expectAt(exp, int32(i), last) {
			return nil, fmt.Errorf("submission plan: host %q changes answer outside the plan", c.hosts[i])
		}
	}
	return plan, nil
}

// brand builds a short pronounceable label.
func brand(rng *rand.Rand) string {
	syl := []string{"ka", "lo", "mi", "ne", "ru", "so", "ta", "vi", "ze", "pa"}
	var b strings.Builder
	for i := 0; i < 3; i++ {
		b.WriteString(syl[rng.Intn(len(syl))])
	}
	return b.String()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
