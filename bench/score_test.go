package main

import (
	"testing"

	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// The validate-heavy ladder seeds three bugs two of which sit on
// consecutive lines (see valheavy.go). Matching the first seeded bug within
// one line, as oscorpus.Evaluate does, hands the second rung's report to
// the first rung; exact-line-first matching scores all three.
func TestScoreLadderShape(t *testing.T) {
	const f = "drivers/drivers_00.c"
	npd := func(line int) oscorpus.GroundTruth {
		return oscorpus.GroundTruth{ID: f + string(rune('a'+line)), Type: typestate.NPD, File: f, Line: line}
	}
	truth := []oscorpus.GroundTruth{npd(20), npd(21), npd(23)}
	reports := []finding{{"NPD", f, 20}, {"NPD", f, 21}, {"NPD", f, 23}}

	s := scoreFindings(truth, reports)
	if s.Matched != 3 || s.FalsePos != 0 || s.recall() != 1 || s.precision() != 1 {
		t.Fatalf("ladder: got %+v, want all 3 matched and no false positive", s)
	}

	var rs []oscorpus.Report
	for _, r := range reports {
		rs = append(rs, oscorpus.Report{Type: typestate.BugType(r.Type), File: r.File, Line: r.Line})
	}
	if ev := oscorpus.Evaluate(&oscorpus.Corpus{Truth: truth}, rs); ev.Real != 2 {
		t.Fatalf("oscorpus.Evaluate matched %d ladder rungs; this test documents that it matches 2", ev.Real)
	}
}

func TestScoreFallbackDuplicatesAndFalsePositives(t *testing.T) {
	const f = "net/net_00.c"
	truth := []oscorpus.GroundTruth{
		{ID: "a", Type: typestate.NPD, File: f, Line: 10},
		{ID: "b", Type: typestate.UVA, File: f, Line: 40},
		{ID: "c", Type: typestate.ML, File: f, Line: 60},
	}
	reports := []finding{
		{"NPD", f, 11}, // one line off: matched by the fallback
		{"NPD", f, 11}, // repeated report: deduplicated
		{"UVA", f, 40}, // exact
		{"UVA", f, 41}, // next to an already-matched bug: a duplicate, neither way
		{"NPD", f, 40}, // right line, wrong type: false positive
		{"ML", f, 90},  // nowhere near: false positive
	}
	s := scoreFindings(truth, reports)
	want := score{Seeded: 3, Matched: 2, FalsePos: 2}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	if got := s.recall(); got != 2.0/3 {
		t.Errorf("recall %v, want 2/3", got)
	}
	if got := s.precision(); got != 0.5 {
		t.Errorf("precision %v, want 0.5", got)
	}
}
