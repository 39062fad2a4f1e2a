package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/minicc"
	"repro/internal/typestate"
)

const capsuleSrc = `
int helper_deref(int *p) {
	if (!p)
		return *p;
	return 0;
}

static int entry_npd(int *q, int flag) {
	if (flag)
		return helper_deref(q);
	return 1;
}

static int entry_leak(int n) {
	char *buf = malloc(n);
	if (n > 4)
		return -1;
	free(buf);
	return 0;
}

static int entry_clean(int a) {
	int b = a + 1;
	return b * 2;
}
`

func lowerCapsuleSrc(t *testing.T) *cir.Module {
	t.Helper()
	mod, err := minicc.LowerAll("capsule", map[string]string{"capsule.c": capsuleSrc})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestAnalysisSaltInvalidation pins the cache-key contract: every
// analysis-relevant Config field, the checker set down to same-named
// variants, the intrinsics table, and the module's globals each change the
// salt, while irrelevant knobs (trace hooks, timing knobs) do not.
func TestAnalysisSaltInvalidation(t *testing.T) {
	mod := lowerCapsuleSrc(t)
	valid := func(context.Context, *PossibleBug, Mode) ValidationOutcome {
		return ValidationOutcome{Feasible: true}
	}
	base := Config{ValidatePath: valid}
	salt := func(c Config) uint64 { return c.withDefaults().analysisSalt(mod) }
	s0 := salt(base)

	mut := []struct {
		name string
		mod  func(c Config) Config
	}{
		{"Mode", func(c Config) Config { c.Mode = ModeNoAlias; return c }},
		{"MaxCallDepth", func(c Config) Config { c.MaxCallDepth = 3; return c }},
		{"MaxPathsPerEntry", func(c Config) Config { c.MaxPathsPerEntry = 128; return c }},
		{"MaxStepsPerEntry", func(c Config) Config { c.MaxStepsPerEntry = 5000; return c }},
		{"MaxContinuationsPerCall", func(c Config) Config { c.MaxContinuationsPerCall = 7; return c }},
		{"LoopUnroll", func(c Config) Config { c.LoopUnroll = 2; return c }},
		{"ValidatePath", func(c Config) Config { c.ValidatePath = nil; return c }},
		{"ValidateBatch", func(c Config) Config {
			c.ValidateBatch = func(_ context.Context, bugs []*PossibleBug, _ Mode) []ValidationOutcome {
				return make([]ValidationOutcome, len(bugs))
			}
			return c
		}},
		{"Checkers", func(c Config) Config {
			c.Checkers = append(typestate.CoreCheckers(), typestate.NewDBZ())
			return c
		}},
		{"CheckerSubset", func(c Config) Config {
			c.Checkers = []typestate.Checker{typestate.NewNPD()}
			return c
		}},
		// Same-named variants: the thread-unaware UVA, and a pairing rule
		// that differs from the next one only in its callees.
		{"UVAThreadUnaware", func(c Config) Config {
			c.Checkers = []typestate.Checker{typestate.NewNPD(), typestate.NewUVAThreadUnaware(), typestate.NewML()}
			return c
		}},
		{"PairOpenA", func(c Config) Config {
			c.Checkers = []typestate.Checker{typestate.NewPair(typestate.PairRule{Name: "r", Open: []string{"a"}, Close: []string{"z"}})}
			return c
		}},
		{"PairOpenB", func(c Config) Config {
			c.Checkers = []typestate.Checker{typestate.NewPair(typestate.PairRule{Name: "r", Open: []string{"b"}, Close: []string{"z"}})}
			return c
		}},
		{"Intrinsics", func(c Config) Config {
			c.Intrinsics = typestate.DefaultIntrinsics().Add(typestate.IntrAlloc, "my_alloc")
			return c
		}},
		{"FaultHook", func(c Config) Config {
			c.FaultHook = func(string, int) *FaultSpec { return nil }
			return c
		}},
	}
	seen := map[uint64]string{s0: "base"}
	for _, m := range mut {
		s := salt(m.mod(base))
		if prev, dup := seen[s]; dup {
			t.Errorf("%s: salt %#x collides with %s", m.name, s, prev)
		}
		seen[s] = m.name
	}

	// Equivalent spellings of the defaults hash identically.
	explicit := base
	explicit.MaxCallDepth = 8
	explicit.MaxPathsPerEntry = 4096
	explicit.MaxStepsPerEntry = 1_000_000
	explicit.MaxContinuationsPerCall = 2
	explicit.LoopUnroll = 1
	explicit.Checkers = typestate.CoreCheckers()
	explicit.Intrinsics = typestate.DefaultIntrinsics()
	if salt(explicit) != s0 {
		t.Error("explicitly spelled defaults changed the salt")
	}

	// Analysis-irrelevant knobs must NOT invalidate.
	irr := base
	irr.Trace = func(cir.Instr, *aliasgraph.Graph) {}
	if salt(irr) != s0 {
		t.Error("Trace changed the salt")
	}
	// Timing knobs don't determine what a *healthy* entry explores, and
	// degraded entries are never persisted — so they must not invalidate.
	irr = base
	irr.EntryTimeout = 30_000_000_000
	irr.RunTimeout = 60_000_000_000
	irr.MaxRetries = 3
	if salt(irr) != s0 {
		t.Error("EntryTimeout/RunTimeout/MaxRetries changed the salt")
	}
	// A new global invalidates.
	mod2 := lowerCapsuleSrc(t)
	mod2.AddGlobal("extra_global", cir.I32)
	if base.withDefaults().analysisSalt(mod2) == s0 {
		t.Error("adding a global did not change the salt")
	}
}

// TestCapsuleRoundTrip and the other EntryCache end-to-end tests live in
// capsule_ext_test.go (package core_test): they install the pathval
// validator, which imports core, so an in-package test would cycle.

// TestEntryKeyString pins the capsule storage key format: "e" and the key
// in 16 lower-case hex digits, as fmt's %016x writes it.
func TestEntryKeyString(t *testing.T) {
	for _, key := range []uint64{0, 1, 0xabc, 0x0123456789abcdef, 0xfedcba9876543210, ^uint64(0)} {
		if got, want := entryKeyString(key), fmt.Sprintf("e%016x", key); got != want {
			t.Errorf("entryKeyString(%#x) = %q, want %q", key, got, want)
		}
	}
}

// TestOnPathTablesCleared: a pooled onPath table comes back all-zero,
// even when a panicked entry left counts in it.
func TestOnPathTablesCleared(t *testing.T) {
	for range 4 {
		dirty := make([]int32, 64)
		dirty[3], dirty[63] = 2, 1
		putOnPath(dirty)
		got := getOnPath(32)
		if slices.ContainsFunc(got, func(c int32) bool { return c != 0 }) {
			t.Fatalf("table with counts %v", got)
		}
		putOnPath(got)
	}
}
