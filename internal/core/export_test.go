package core

import (
	"repro/internal/cir"
	"repro/internal/typestate"
)

// Capsule-codec hooks for the external-package fuzz, round-trip and
// benchmark tests, which need the pathval validator (an importer of core)
// to produce real verdicts.

// encodeCapsule encodes one entry's Result, with each candidate's verdict,
// the way a cached run saves a missed entry.
func encodeCapsule(res *Result) ([]byte, bool) {
	return encodeEntry(capsuleStatsOf(&res.Stats), res.Possible, nil)
}

// decodeCapsule rebuilds one entry's Result from its capsule: the
// candidates a hit's replay holds and the Stats the replay adds to a run.
func decodeCapsule(data []byte, mod *cir.Module, checkers map[string]typestate.Checker) (*Result, bool) {
	rp, ok := decodeReplay(data, mod, checkers)
	if !ok {
		return nil, false
	}
	return &Result{Possible: rp.possible, Stats: rp.stats.replayed()}, true
}

// EncodeCapsule encodes an entry Result the way a cached run saves it.
func EncodeCapsule(res *Result) ([]byte, bool) { return encodeCapsule(res) }

// ReplayCapsule returns a decoder that rebuilds a capsule's Result
// against mod (decodeCapsule), with cfg's checkers indexed once.
func ReplayCapsule(mod *cir.Module, cfg Config) func(data []byte) (*Result, bool) {
	byName := checkersByName(cfg.withDefaults())
	return func(data []byte) (*Result, bool) { return decodeCapsule(data, mod, byName) }
}

// DecodeHit returns the decoder a cached run applies to a hit it does not
// carry (decodeReplay), with cfg's checkers indexed once; it reports the
// number of candidates decoded, or -1 when the capsule does not decode.
func DecodeHit(mod *cir.Module, cfg Config) func(data []byte) int {
	byName := checkersByName(cfg.withDefaults())
	return func(data []byte) int {
		rp, ok := decodeReplay(data, mod, byName)
		if !ok {
			return -1
		}
		return len(rp.possible)
	}
}

// mergeResults merges live entry Results the way a run merges its slots.
func mergeResults(results []*Result) *Result {
	slots := make([]entrySlot, len(results))
	for i, r := range results {
		slots[i].live = r
	}
	return mergeEntries(nil, slots)
}

// StoredVerdict returns the verdict pb's capsule carries, if any.
func StoredVerdict(pb *PossibleBug) (ValidationOutcome, bool) {
	if pb.verdict == nil {
		return ValidationOutcome{}, false
	}
	return pb.verdict.outcome(), true
}

// SetStoredVerdict sets the verdict pb's capsule carries to out, or clears
// it when out is nil.
func SetStoredVerdict(pb *PossibleBug, out *ValidationOutcome) {
	pb.verdict = nil
	if out != nil {
		pb.verdict = verdictOf(*out)
	}
}
