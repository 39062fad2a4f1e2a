package core

import (
	"testing"

	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// TestCanonSeededCrossCheck runs every corpus with the canonCrossCheck hook
// installed: on each memo digest query the engine computes both the
// seed-restricted CanonStateSeeded path and the full CanonState path, and
// the two must agree — digests, validity, and the label assignment. This is
// the soundness fuzz for the restricted canonicalization: any divergence
// means the seed-reachable subgraph missed a fact the full walk sees.
func TestCanonSeededCrossCheck(t *testing.T) {
	queries := 0
	canonCrossCheck = func(seededGd, fullGd, seededTd, fullTd uint64, seededOK, fullOK, labelsEqual bool) {
		queries++
		if seededOK != fullOK {
			t.Errorf("seeded validity diverges from full recompute: %v vs %v", seededOK, fullOK)
			return
		}
		if !seededOK {
			return
		}
		if seededGd != fullGd || seededTd != fullTd {
			t.Errorf("seeded digests diverge from full recompute: gd %#x vs %#x, td %#x vs %#x",
				seededGd, fullGd, seededTd, fullTd)
		}
		if !labelsEqual {
			t.Errorf("seeded label assignment diverges from full recompute")
		}
	}
	defer func() { canonCrossCheck = nil }()

	specs := append(oscorpus.AllSpecs(), oscorpus.HelperHeavySpec())
	for _, spec := range specs {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		// NoAdaptive keeps the memo engaged on every entry so both key
		// shapes (single-set block seeds, multi-set unions with stacked call
		// sites) are exercised on every corpus.
		cfg := Config{Checkers: typestate.AllCheckers(), NoAdaptive: true}
		NewEngine(mod, cfg).Run()
	}
	if queries == 0 {
		t.Fatal("cross-check hook never fired: no digest queries across the corpora")
	}
	t.Logf("cross-checked %d seeded digest queries", queries)
}
