package core_test

import (
	"testing"

	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// TestAdaptiveEquivalence pins the adaptive size gate's contract: the
// per-entry layer scheduling it performs — size-gated light entries — must
// never change the validated bug set. Every corpus is analyzed with the
// gate on and off, sequentially and through the pipelined scheduler, and
// all four reports must be byte-identical.
func TestAdaptiveEquivalence(t *testing.T) {
	specs := append(oscorpus.AllSpecs(), oscorpus.HelperHeavySpec())
	for _, spec := range specs {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			mk := func(noAdaptive bool) core.Config {
				cfg := core.Config{Checkers: typestate.AllCheckers(), NoAdaptive: noAdaptive}
				pathval.New().Install(&cfg)
				return cfg
			}
			want := bugReport(core.NewEngine(mod, mk(true)).Run())
			if got := bugReport(core.NewEngine(mod, mk(false)).Run()); got != want {
				t.Errorf("adaptive sequential run changed the report:\n--- adaptive off\n%s\n--- adaptive on\n%s", want, got)
			}
			if got := bugReport(core.RunParallel(mod, mk(false), 4)); got != want {
				t.Errorf("adaptive parallel run changed the report:\n--- adaptive off (sequential)\n%s\n--- adaptive on (parallel)\n%s", want, got)
			}
			if got := bugReport(core.RunParallel(mod, mk(true), 4)); got != want {
				t.Errorf("non-adaptive parallel run changed the report:\n--- sequential\n%s\n--- parallel\n%s", want, got)
			}
		})
	}
}

// TestAdaptiveGateCounters sanity-checks the gate's observable counter: the
// small corpora are size-gated (light entries run no layer), and with the
// gate off no entry is light and pruning fires.
func TestAdaptiveGateCounters(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Checkers: typestate.CoreCheckers()}
	pathval.New().Install(&cfg)
	res := core.NewEngine(mod, cfg).Run()
	if res.Stats.AdaptiveEntriesLight == 0 {
		t.Errorf("no zephyr-like entry was size-gated: %+v", res.Stats)
	}
	if res.Stats.PrunedBranches != 0 || res.Stats.MemoHits != 0 {
		t.Errorf("light entries still ran prune/memo: %+v", res.Stats)
	}

	off := cfg
	off.NoAdaptive = true
	pathval.New().Install(&off)
	full := core.NewEngine(mod, off).Run()
	if full.Stats.AdaptiveEntriesLight != 0 {
		t.Errorf("NoAdaptive run gated entries: %+v", full.Stats)
	}
	if full.Stats.PrunedBranches == 0 {
		t.Errorf("NoAdaptive run never pruned: %+v", full.Stats)
	}
}

// TestAdaptiveCacheRoundTrip proves adaptivity does not leak into the
// incremental cache: capsules recorded by an adaptive run replay under
// NoAdaptive (and vice versa) because the salt excludes the scheduling
// knobs, and the replayed bug set matches a cold non-adaptive run.
func TestAdaptiveCacheRoundTrip(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ZephyrSpec())
	lower := func() *cir.Module {
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	cache := newMemCache()
	mk := func(noAdaptive bool) core.Config {
		cfg := core.Config{Checkers: typestate.CoreCheckers(), Cache: cache, NoAdaptive: noAdaptive}
		pathval.New().Install(&cfg)
		return cfg
	}
	cold := core.RunParallel(lower(), mk(false), 2) // adaptive writes the capsules
	if cold.Stats.CacheEntriesMiss == 0 {
		t.Fatalf("cold run hit a fresh cache: %+v", cold.Stats)
	}
	warm := core.RunParallel(lower(), mk(true), 2) // non-adaptive replays them
	if warm.Stats.CacheEntriesMiss != 0 {
		t.Errorf("NoAdaptive warm run missed: %+v — the salt leaked an adaptive knob", warm.Stats)
	}
	if got, want := bugReport(warm), bugReport(cold); got != want {
		t.Errorf("warm NoAdaptive replay changed the report:\n--- cold adaptive\n%s\n--- warm\n%s", want, got)
	}
}
