package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/history"
	"repro/internal/httparchive"
	"repro/internal/serve"
)

// smallCorpus is a reduced history and snapshot, enough to exercise
// every input generator quickly.
func smallCorpus(t *testing.T) (*corpus, []uint64) {
	t.Helper()
	h := history.Generate(history.Config{Seed: refSeed, Versions: 40})
	snap := httparchive.Generate(httparchive.Config{Seed: refSeed, Scale: 0.05}, h)
	c := &corpus{h: h, head: h.Latest(), headSeq: h.Len() - 1, hosts: snap.Hosts}
	exp, err := expectedAll(c.head, c.hosts)
	if err != nil {
		t.Fatal(err)
	}
	return c, exp
}

// generated is every input a seed produces, serialised as the program
// receives it: lookup request paths, batch request bodies, submission
// requests.
type generated struct{ lookups, batches, submissions []byte }

func generate(t *testing.T, c *corpus, exp []uint64, seed int64) generated {
	t.Helper()
	var g generated
	ls := newLookupStream(len(c.hosts), seed)
	paths := lookupPaths(c.hosts)
	var b bytes.Buffer
	for _, idx := range ls.warm[:1000] {
		b.WriteString(paths[idx] + "\n")
	}
	for conn := 0; conn < lookupConns; conn++ {
		for i := 0; i < 5000; i++ {
			b.WriteString(paths[ls.at(conn, lookupConns, i)] + "\n")
		}
	}
	g.lookups = bytes.Clone(b.Bytes())

	b.Reset()
	stable, err := stableHosts(c.head, c.hosts, exp)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := newBatchStream(c.hosts, stable, seed)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]string, batchRows)
	idx := make([]int32, batchRows)
	// The first batches and batches past the end of round 0, where
	// fresh leading labels start.
	first := int64(len(bs.order)) / batchRows
	for _, n := range []int64{0, 1, 2, first, first + 1, 3 * first} {
		bs.batch(n, hosts, idx)
		body, err := serve.AppendBatchRequest(nil, hosts)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(body)
	}
	g.batches = bytes.Clone(b.Bytes())

	b.Reset()
	plan, err := planSubmissions(c, exp, ls.byRank, seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.subs {
		js, err := json.Marshal(s.req)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)
		b.WriteString("\n" + s.probe + "\n")
	}
	g.submissions = bytes.Clone(b.Bytes())
	return g
}

func TestInputsDeterministic(t *testing.T) {
	c, exp := smallCorpus(t)
	a, again, other := generate(t, c, exp, 1), generate(t, c, exp, 1), generate(t, c, exp, 2)
	for _, part := range []struct {
		name            string
		a, again, other []byte
	}{
		{"lookup request stream", a.lookups, again.lookups, other.lookups},
		{"batch request stream", a.batches, again.batches, other.batches},
		{"submission sequence", a.submissions, again.submissions, other.submissions},
	} {
		if len(part.a) == 0 {
			t.Fatalf("%s is empty", part.name)
		}
		if !bytes.Equal(part.a, part.again) {
			t.Errorf("%s differs between two generations at the same seed", part.name)
		}
		if bytes.Equal(part.a, part.other) {
			t.Errorf("%s is the same at seeds 1 and 2", part.name)
		}
	}
}

func TestBatchRowsNeverRepeat(t *testing.T) {
	c, exp := smallCorpus(t)
	stable, err := stableHosts(c.head, c.hosts, exp)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := newBatchStream(c.hosts, stable, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int64{}
	n := int64(len(bs.order)) * 3
	for i := int64(0); i < n; i++ {
		h, _ := bs.row(i)
		if j, dup := seen[h]; dup {
			t.Fatalf("rows %d and %d are both %q", j, i, h)
		}
		seen[h] = i
	}
	if err := checkBatchStream(c.head, bs, exp, 2000, 7); err != nil {
		t.Fatal(err)
	}
}

func TestScanAnswerMatchesEncoder(t *testing.T) {
	answers := []serve.Answer{
		{Query: "www.example.com", Host: "www.example.com", ETLD: "com", Site: "example.com", ICANN: true, Rule: "com", Section: "icann", Version: "v1", Seq: 3},
		{Query: "bücher.\"quoted\\\".de", Host: "xn--bcher-kva.de", ETLD: "de", IsSuffix: false, Site: "xn--bcher-kva.de", Section: "icann", ICANN: true, Version: "v2", Seq: 1141, Cached: true},
		{Query: "city.kobe.jp", Host: "city.kobe.jp", ETLD: "city.kobe.jp", IsSuffix: true, Section: "implicit", Implicit: true, Seq: 0},
	}
	for _, a := range answers {
		js, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		var w wireAnswer
		if err := scanAnswer(js, &w); err != nil {
			t.Fatalf("scan %s: %v", js, err)
		}
		if w.digest() != answerDigest(&a) || w.seq != a.Seq || w.cached != a.Cached || w.hasErr {
			t.Fatalf("scan %s: got %+v", js, w)
		}
	}
	var w wireAnswer
	for _, bad := range []string{"", "{", `{"etld":}`, `{"seq":1,}`, `{"etld":"com"`, `[1]`} {
		if scanAnswer([]byte(bad), &w) == nil {
			t.Errorf("scan accepted %q", bad)
		}
	}
	if err := scanAnswer([]byte(`{"error":"bad host","seq":4}`), &w); err != nil || !w.hasErr {
		t.Fatalf("error row: %v %+v", err, w)
	}
}
