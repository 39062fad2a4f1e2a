package main

import (
	"repro/internal/oscorpus"
)

// finding is one reported bug, reduced to what ground truth matches on.
// File is relative to the corpus root.
type finding struct {
	Type string
	File string
	Line int
}

// score is the outcome of matching findings against a corpus's seeded bugs.
type score struct {
	Seeded   int // seeded bugs
	Matched  int // seeded bugs matched by a report (one report each)
	FalsePos int // deduplicated reports matching no seeded bug
}

func (s score) recall() float64 {
	if s.Seeded == 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Seeded)
}

func (s score) precision() float64 {
	if s.Matched+s.FalsePos == 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Matched+s.FalsePos)
}

// scoreFindings matches reports to seeded bugs one to one: first every
// report sitting exactly on a seeded bug's line, then, among what is left,
// reports within one line (a report may name the statement rather than the
// expression). oscorpus.Evaluate takes the first seeded bug within one
// line instead, so two seeded bugs on consecutive lines — the
// validate-heavy ladder — steal each other's reports there. A leftover
// report within one line of an already-matched bug is a duplicate and
// counts neither way, as in Evaluate; any other leftover is a false
// positive.
func scoreFindings(truth []oscorpus.GroundTruth, reports []finding) score {
	s := score{Seeded: len(truth)}
	seen := make(map[finding]bool, len(reports))
	var uniq []finding
	for _, r := range reports {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	matchedTruth := make([]bool, len(truth))
	matchedReport := make([]bool, len(uniq))
	match := func(tol int) {
		for ri, r := range uniq {
			if matchedReport[ri] {
				continue
			}
			for ti, g := range truth {
				if !matchedTruth[ti] && near(g, r, tol) {
					matchedTruth[ti], matchedReport[ri] = true, true
					s.Matched++
					break
				}
			}
		}
	}
	match(0)
	match(1)
	for ri, r := range uniq {
		if matchedReport[ri] {
			continue
		}
		dup := false
		for _, g := range truth {
			if near(g, r, 1) {
				dup = true
				break
			}
		}
		if !dup {
			s.FalsePos++
		}
	}
	return s
}

func near(g oscorpus.GroundTruth, r finding, tol int) bool {
	d := g.Line - r.Line
	return string(g.Type) == r.Type && g.File == r.File && d <= tol && -d <= tol
}
