package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at scale 1 with two timed ops, untraced
// and traced, and checks that the metrics printed are exactly the ones
// BENCHMARK.json declares, with its units, so the two cannot drift apart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tools and runs every workload")
	}
	e, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := run(e, options{workload: w.name, seed: 1, seconds: 1, trace: trace, scale: 1, ops: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			r.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, errors %v",
					w.name, trace, last.Correct, last.Attempted, last.Failed, r.Errors)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s %s missing or in another unit (%q)", w.name, trace, m.Name, m.Unit, got.Unit)
				}
				if !strings.Contains(out.String(), w.name+" "+m.Name+" ") {
					t.Errorf("%s trace=%v: no printed line for %s", w.name, trace, m.Name)
				}
			}
			if !trace && last.Metrics["recall"].Value != 1 {
				t.Errorf("%s: recall %v, want 1", w.name, last.Metrics["recall"].Value)
			}
		}
	}
}
