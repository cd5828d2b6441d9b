package submit

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/domain"
	"repro/internal/psl"
)

// popIndex orders a population's hosts by reversed canonical name, so
// the hosts at or below one suffix are found by binary search instead
// of a scan. It holds only a permutation of population indices, plus
// the canonical form of the few hosts whose raw string is not already
// canonical. Hosts that fail canonicalisation are left out: SiteOrSelf
// returns them unchanged under every list, so no rule change flips
// them.
type popIndex struct {
	hosts []string
	canon map[int32]string
	perm  []int32 // host indices, in domain.CompareReversed order of name
}

func newPopIndex(hosts []string) *popIndex {
	x := &popIndex{hosts: hosts, canon: make(map[int32]string), perm: make([]int32, 0, len(hosts))}
	for i, h := range hosts {
		c, err := psl.Canonical(h)
		if err != nil {
			continue
		}
		if c != h {
			x.canon[int32(i)] = c
		}
		x.perm = append(x.perm, int32(i))
	}
	slices.SortFunc(x.perm, func(a, b int32) int { return domain.CompareReversed(x.name(a), x.name(b)) })
	return x
}

// name returns host i's canonical form.
func (x *popIndex) name(i int32) string {
	if c, ok := x.canon[i]; ok {
		return c
	}
	return x.hosts[i]
}

// search returns the first position in perm whose name does not sort
// before s in reversed order.
func (x *popIndex) search(s string) int {
	return sort.Search(len(x.perm), func(k int) bool { return domain.CompareReversed(x.name(x.perm[k]), s) >= 0 })
}

// affected returns, in ascending order and without repeats, the indices
// of the hosts at or below any changed rule's suffix. Only those hosts
// can change SiteOrSelf: a rule can match a name only at or below its
// suffix (a wildcard's base, an exception's own name), and a name's
// answer depends on the rules that match it alone.
//
// The subtree of s is not one range in reversed order: "ab-c" sorts
// between "ab" and "x.ab" because '-' precedes '.'. So it is read as
// two: the hosts equal to s, then those under it, whose reversed names
// share the prefix Reverse(s)+"." — the reversed form of "."+s.
func (x *popIndex) affected(rules []psl.Rule) []int32 {
	var out []int32
	for _, r := range rules {
		k := x.search(r.Suffix)
		for ; k < len(x.perm) && x.name(x.perm[k]) == r.Suffix; k++ {
			out = append(out, x.perm[k])
		}
		below := "." + r.Suffix
		for k = x.search(below); k < len(x.perm) && strings.HasSuffix(x.name(x.perm[k]), below); k++ {
			out = append(out, x.perm[k])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
