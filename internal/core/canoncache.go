// Seeded canonical-digest computation for memo keys.
//
// Memo keys need ID-independent canonical digests
// (aliasgraph canonicalization + Tracker.CanonDigest). The full
// aliasgraph.CanonState path filters every variable the graph has ever
// bound and runs its label fixpoint over every node — O(graph) per query,
// at every CFG join. But the engine already holds the relevant-variable
// sets explicitly (the reachability analysis' per-block value sets), so it
// can seed the canonicalization directly and restrict all work to the
// seed-reachable subgraph: O(relevant) per query with bit-identical
// results (see aliasgraph.CanonStateSeeded).
//
// A fingerprint-keyed digest cache was tried first and is worth a tombstone:
// the engine's incremental graph/tracker fingerprints embed allocation-order
// node IDs and span the whole graph, while the canonical digests are
// reach-restricted and ID-free. Probing linux-like showed thousands of
// canonical-key reconvergences with zero recurring raw fingerprint pairs —
// DFS arms that converge canonically still differ in dead values and ID
// assignment, so a (graph fp, tracker fp) cache key structurally never
// hits. Computing the restricted digest cheaply beats caching the
// unrestricted one.
package core

import (
	"time"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
)

// canonCrossCheck, when set by a test, is invoked on every seeded-path
// digest query with the seeded and full-path results so the restricted
// computation can be fuzzed against full recanonicalization across whole
// corpora. Must be set before engines start and left unchanged while they
// run.
var canonCrossCheck func(seededGd, fullGd, seededTd, fullTd uint64, seededOK, fullOK, labelsEqual bool)

// canonDigests returns the canonical digest pair for the current
// graph+tracker state restricted to the union of the given reachability
// sets. ok=false reports a non-canonicalizable configuration (see
// Tracker.CanonDigest).
func (e *Engine) canonDigests(sets []*blockInfo) (gd, td uint64, ok bool) {
	start := time.Now()
	gd, td, ok = e.canonDigestsImpl(sets)
	e.stats.CanonNanos += int64(time.Since(start))
	return gd, td, ok
}

func (e *Engine) canonDigestsImpl(sets []*blockInfo) (uint64, uint64, bool) {
	vars := e.canonVarW[:0]
	if len(sets) == 1 {
		for v := range sets[0].vals {
			vars = append(vars, v)
		}
	} else {
		// Overlapping reach sets would seed a variable twice (XOR-cancelling
		// it); dedup across sets.
		if e.canonSeen == nil {
			e.canonSeen = make(map[cir.Value]bool)
		}
		clear(e.canonSeen)
		for _, s := range sets {
			for v := range s.vals {
				if !e.canonSeen[v] {
					e.canonSeen[v] = true
					vars = append(vars, v)
				}
			}
		}
	}
	gd, labels := e.g.CanonStateSeeded(vars)
	e.canonVarW = vars[:0]
	td, ok := e.tracker.CanonDigest(labels)
	if canonCrossCheck != nil {
		// The full path below clobbers the graph's label scratch; snapshot
		// the seeded assignment first. Test-only, so allocation is fine.
		snap := make(map[*aliasgraph.Node]uint64, len(labels))
		for n, l := range labels {
			snap[n] = l
		}
		fgd, ftd, flabels, fok := e.canonFull(sets)
		labelsEqual := true
		if ok && fok {
			labelsEqual = labelMapsEqual(snap, flabels)
		}
		canonCrossCheck(gd, fgd, td, ftd, ok, fok, labelsEqual)
	}
	if !ok {
		return 0, 0, false
	}
	return gd, td, true
}

// canonFull is the cross-check hook's oracle: an unrestricted CanonState
// re-labelling with a membership-test relevant function, plus the tracker
// digest over the fresh labels.
func (e *Engine) canonFull(sets []*blockInfo) (uint64, uint64, map[*aliasgraph.Node]uint64, bool) {
	relevant := func(v cir.Value) bool {
		for _, s := range sets {
			if s.vals[v] {
				return true
			}
		}
		return false
	}
	gd, labels := e.g.CanonState(relevant)
	td, ok := e.tracker.CanonDigest(labels)
	if !ok {
		return 0, 0, nil, false
	}
	return gd, td, labels, true
}

func labelMapsEqual(a, b map[*aliasgraph.Node]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for n, l := range a {
		if bl, ok := b[n]; !ok || bl != l {
			return false
		}
	}
	return true
}
