package core

import "repro/internal/cir"

// Wire-codec hooks for the external-package fuzz and round-trip tests,
// which need the pathval validator (an importer of core) to produce real
// verdicts.

type (
	CapsuleWire = entryCapsule
	CandWire    = candC
	VerdictWire = verdictC
)

func UnmarshalCapsuleWire(data []byte) (CapsuleWire, bool) { return unmarshalCapsule(data) }
func MarshalCapsuleWire(c CapsuleWire) []byte              { return marshalCapsule(&c) }

// ReplayCapsule decodes a capsule payload against mod the way a cache hit
// does.
func ReplayCapsule(data []byte, mod *cir.Module, cfg Config) (*Result, bool) {
	return decodeCapsule(data, mod, checkersByName(cfg.withDefaults()))
}

// CapsuleWireOf lifts an entry Result into its wire form, as encoding does.
func CapsuleWireOf(res *Result) (CapsuleWire, bool) { return capsuleOf(res) }
