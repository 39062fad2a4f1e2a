package main

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/minicc"
)

// Counts are what make two seeds the same workload: they must not move
// with the seed, and the helper and validation clusters must scale with
// the rest of the corpus.
func TestWorkloadCounts(t *testing.T) {
	want := map[string]struct{ files, bugs, traps, entries int }{
		"scan-linux":    {80, 184, 216, 1420},
		"scan-helper":   {18, 24, 18, 150},
		"scan-validate": {36, 336, 828, 468},
		"serve-edit":    {80, 184, 216, 1420},
	}
	for _, w := range workloads {
		for _, seed := range []int64{0, 7} {
			c := w.corpus(seed, w.scale)
			mod, err := minicc.LowerAll("program", c.Sources)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			entries := len(callgraph.Build(mod).EntryFunctions())
			got := want[w.name]
			if c.Files() != got.files || len(c.Truth) != got.bugs || len(c.Traps) != got.traps || entries != got.entries {
				t.Errorf("%s seed %d: %d files, %d bugs, %d traps, %d entries; want %+v",
					w.name, seed, c.Files(), len(c.Truth), len(c.Traps), entries, got)
			}
		}
	}
}

func TestSeedChangesLayout(t *testing.T) {
	w, err := findWorkload("scan-linux")
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.corpus(1, 1), w.corpus(2, 1)
	same := true
	for name, src := range a.Sources {
		if b.Sources[name] != src {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 generated identical corpora")
	}
}
