package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares
// exactly the result-line metrics every workload reports, in order and
// with the same units, that no workload's own metric reuses a declared
// name, and that it lists exactly the workloads the command accepts.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
		if workloadEndToEnd[w.Name] == nil || workloadPerLayer[w.Name] == nil {
			t.Errorf("workload %s lists no metrics of its own", w.Name)
		}
	}
	for _, c := range []struct {
		kind  string
		decls []decl
		code  []metricSpec
		own   map[string][]metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd, workloadEndToEnd}, {"per_layer", b.PerLayer, perLayer, workloadPerLayer}} {
		if len(c.decls) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", c.kind, len(c.decls), len(c.code))
			continue
		}
		declared := map[string]bool{}
		for i, d := range c.decls {
			declared[d.Name] = true
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), code %s (%s)", c.kind, i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
		for w, specs := range c.own {
			for _, s := range specs {
				if declared[s.name] {
					t.Errorf("%s: own %s metric %s is also declared", w, c.kind, s.name)
				}
			}
		}
	}
}
