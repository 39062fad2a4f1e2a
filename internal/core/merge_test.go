package core

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/typestate"
)

// TestMergeLeavesEntryResults: when mergeResults extends a first sighting
// with a later entry's paths, it extends a copy marked merged and leaves
// every entry's own candidates as their capsules store them, so each
// entry can be encoded from its own Result after Stage 2.
func TestMergeLeavesEntryResults(t *testing.T) {
	mod := lowerCapsuleSrc(t)
	var ins []cir.Instr
	mod.Funcs["entry_leak"].Instrs(func(in cir.Instr) { ins = append(ins, in) })
	if len(ins) < 4 {
		t.Fatalf("entry_leak has %d instructions", len(ins))
	}
	npd, ml := typestate.NewNPD(), typestate.NewML()
	path := func(i int) []PathStep { return []PathStep{{Instr: ins[i], Taken: i%2 == 0}} }
	cand := func(chk typestate.Checker, bug int, entry string, p []PathStep, alts ...[]PathStep) *PossibleBug {
		return &PossibleBug{Checker: chk, Type: chk.Type(), BugInstr: ins[bug], OriginGID: ins[0].GID(),
			Path: p, AltPaths: alts, EntryFn: entry, InFn: "entry_leak"}
	}
	// a1, b1 and c1 share one key. a1's AltPaths has spare capacity, so an
	// append in place would write into its backing array.
	a1 := cand(npd, 2, "a", path(0))
	a1.AltPaths = make([][]PathStep, 0, 8)
	a1.verdict = &verdictC{Feasible: true}
	a2 := cand(ml, 2, "a", path(1))
	b1 := cand(npd, 2, "b", path(2), path(3))
	b2 := cand(npd, 3, "b", path(3))
	c1 := cand(npd, 2, "c", path(1), path(2), path(3))
	results := []*Result{
		{Possible: []*PossibleBug{a1, a2}, Stats: Stats{RepeatedDropped: 2}},
		{Possible: []*PossibleBug{b1, b2}},
		{Possible: []*PossibleBug{c1}},
	}
	type shape struct {
		alts   int
		merged bool
	}
	before := map[*PossibleBug]shape{}
	for _, r := range results {
		for _, pb := range r.Possible {
			before[pb] = shape{len(pb.AltPaths), pb.merged}
		}
	}

	m := mergeResults(results)

	for pb, want := range before {
		if got := (shape{len(pb.AltPaths), pb.merged}); got != want {
			t.Errorf("entry %s candidate changed by the merge: %+v, was %+v", pb.EntryFn, got, want)
		}
	}
	if spare := a1.AltPaths[:1]; spare[0] != nil {
		t.Error("the merge appended into the entry candidate's AltPaths array")
	}
	if len(m.Possible) != 3 || m.Possible[1] != a2 || m.Possible[2] != b2 {
		t.Fatalf("merged set %v, want [copy of a1, a2, b2]", m.Possible)
	}
	ext := m.Possible[0]
	if ext == a1 || !ext.merged {
		t.Fatalf("extended first sighting is the entry's own candidate or not marked merged")
	}
	if ext.EntryFn != "a" || ext.BugInstr != a1.BugInstr || ext.verdict != a1.verdict {
		t.Errorf("merged copy lost a1's fields: %+v", ext)
	}
	// b1's primary and alternate, then c1's primary and first alternate:
	// maxAltPaths caps the list.
	wantAlts := [][]PathStep{b1.Path, b1.AltPaths[0], c1.Path, c1.AltPaths[0]}
	if len(ext.AltPaths) != maxAltPaths || len(wantAlts) != maxAltPaths {
		t.Fatalf("merged copy has %d alternates, want %d", len(ext.AltPaths), maxAltPaths)
	}
	for i, alt := range wantAlts {
		if &ext.AltPaths[i][0] != &alt[0] {
			t.Errorf("alternate %d is not the expected path", i)
		}
	}
	// Two later sightings of a1's key, plus a's own within-entry drops.
	if m.Stats.RepeatedDropped != 4 {
		t.Errorf("repeated drops = %d, want 4", m.Stats.RepeatedDropped)
	}
}
