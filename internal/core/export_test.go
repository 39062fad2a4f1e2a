package core

import "repro/internal/cir"

// Capsule-codec hooks for the external-package fuzz, round-trip and
// benchmark tests, which need the pathval validator (an importer of core)
// to produce real verdicts.

// EncodeCapsule encodes an entry Result the way a cached run saves it.
func EncodeCapsule(res *Result) ([]byte, bool) { return encodeCapsule(res) }

// ReplayCapsule returns the decoder a cached run applies to a hit against
// mod, with cfg's checkers indexed once.
func ReplayCapsule(mod *cir.Module, cfg Config) func(data []byte) (*Result, bool) {
	byName := checkersByName(cfg.withDefaults())
	return func(data []byte) (*Result, bool) { return decodeCapsule(data, mod, byName) }
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
