package core

import (
	"sort"

	"repro/internal/cir"
	"repro/internal/hmix"
	"repro/internal/typestate"
)

// EntryCache persists per-entry analysis results across runs: one capsule
// per entry function, holding its Stage-1 candidates and their Stage-2
// verdicts. Keys are content-addressed strings computed by the engine;
// values are opaque byte payloads. Load returns ok=false on any miss —
// including corrupted or stale storage — and Save is best-effort (a failed
// write must degrade to a miss on the next run, never to an error).
// Payloads are shared, not copied: an implementation may retain the slice
// Save receives, and nobody modifies a payload after Save or Load.
// Implementations must be safe for concurrent use; acache.Store is the
// standard on-disk implementation.
type EntryCache interface {
	Load(key string) ([]byte, bool)
	Save(key string, data []byte)
}

// capsuleVersion is folded into analysisSalt, so bumping it invalidates
// every cached capsule at once. Bump it whenever the capsule layout, the
// entry keys, the Stats replayed from it, the counters a stored verdict
// carries, or the engine's exploration semantics change in a way old
// capsules cannot represent.
const capsuleVersion = 11

// analysisSalt digests everything outside the function bodies that the
// analysis result can depend on: the capsule format version, the mode,
// every budget knob, the feature toggles, whether Stage-2 validation is
// live, the checker set (specs by content digest, others by name, in
// configured order — order affects checker indices and alias-set
// capture), the intrinsics table, and the module's globals (name and
// element type; global bodies don't exist in CIR). EntryKey mixes this
// salt into every per-entry key, so changing any of these is a full cache
// invalidation. Call on a withDefaults() config — zero fields would
// otherwise alias their defaulted spellings.
func (c Config) analysisSalt(mod *cir.Module) uint64 {
	h := hmix.Mix2(capsuleVersion, uint64(int64(c.Mode)))
	h = hmix.Mix4(h,
		uint64(int64(c.MaxCallDepth)),
		uint64(int64(c.MaxPathsPerEntry)),
		uint64(int64(c.MaxStepsPerEntry)))
	h = hmix.Mix3(h,
		uint64(int64(c.MaxContinuationsPerCall)),
		uint64(int64(c.LoopUnroll)))
	h = hmix.Mix2(h, boolBit(c.ValidateBatch != nil))
	// Fault injection perturbs exploration, so its presence is salted;
	// EntryTimeout/RunTimeout/MaxRetries deliberately are not — degraded
	// entries are simply never persisted, so timing knobs cannot poison
	// the cache and changing them must not invalidate healthy capsules.
	h = hmix.Mix2(h, boolBit(c.FaultHook != nil))
	h = hmix.Mix2(h, uint64(len(c.Checkers)))
	for _, chk := range c.Checkers {
		d := hmix.Str(chk.Name())
		if spec, ok := chk.(*typestate.Spec); ok {
			d = spec.Digest()
		}
		h = hmix.Mix2(h, d)
	}
	h = hmix.Mix2(h, c.Intrinsics.Digest())
	names := make([]string, 0, len(mod.Globals))
	for n := range mod.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h = hmix.Mix3(h, hmix.Str(n), hmix.Str(mod.Globals[n].Elem.String()))
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// entryKeyString formats an entry capsule's storage key: "e" and the key
// in 16 lower-case hex digits.
func entryKeyString(key uint64) string {
	const digits = "0123456789abcdef"
	var b [17]byte
	b[0] = 'e'
	for i := 16; i > 0; i, key = i-1, key>>4 {
		b[i] = digits[key&15]
	}
	return string(b[:])
}

// verdictC is one candidate's Stage-2 validation outcome as its capsule
// stores it. Verdict-cache hit/miss and batching counters are not
// persisted: they describe the run that computed the verdict, not the
// verdict itself.
type verdictC struct {
	Feasible           bool
	Constraints        int64
	ConstraintsUnaware int64
	Trigger            []string
}

func verdictOf(out ValidationOutcome) *verdictC {
	return &verdictC{
		Feasible:           out.Feasible,
		Constraints:        out.Constraints,
		ConstraintsUnaware: out.ConstraintsUnaware,
		Trigger:            out.Trigger,
	}
}

func (v *verdictC) outcome() ValidationOutcome {
	return ValidationOutcome{
		Feasible:           v.Feasible,
		Constraints:        v.Constraints,
		ConstraintsUnaware: v.ConstraintsUnaware,
		Trigger:            v.Trigger,
	}
}

// checkersByName indexes a defaulted config's checker set.
func checkersByName(cfg Config) map[string]typestate.Checker {
	m := make(map[string]typestate.Checker, len(cfg.Checkers))
	for _, chk := range cfg.Checkers {
		m[chk.Name()] = chk
	}
	return m
}
