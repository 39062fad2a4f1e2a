package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// stage1AllocBudget bounds heap allocations per executed Stage-1 step. A
// step recycles alias-graph nodes retired by the previous rollback, indexes
// the on-path counts by GID, extracts branch facts into an array and
// appends checker emissions to a reused buffer, so it allocates almost
// nothing; most of what remains is call frames, block-end successor lists
// and per-candidate report data. Measured 0.071 mallocs/step on
// helper-heavy ×1 with the core checkers and with all of them, against
// 0.17 and 0.32 when every checker allocated its branch facts and kept
// string-keyed object properties. Map-based graph nodes allocated afresh on
// every path cost 4.4 mallocs/step.
const stage1AllocBudget = 0.3

// TestStage1AllocBudget runs one worker with validation off over
// the helper-heavy corpus, whose deep helper chains make Stage 1 ~90% of a
// run, and fails when mallocs per executed step exceed the budget, for the
// core checkers and for all of them.
func TestStage1AllocBudget(t *testing.T) {
	c := oscorpus.Generate(oscorpus.HelperHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name     string
		checkers func() []typestate.Checker
	}{{"core", typestate.CoreCheckers}, {"all", typestate.AllCheckers}} {
		cfg := core.Config{Checkers: set.checkers()}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := core.RunParallel(mod, cfg, 1)
		runtime.ReadMemStats(&after)
		steps := res.Stats.StepsExecuted
		if steps == 0 {
			t.Fatal("no steps executed")
		}
		perStep := float64(after.Mallocs-before.Mallocs) / float64(steps)
		t.Logf("%s: %d mallocs over %d steps: %.3f/step", set.name, after.Mallocs-before.Mallocs, steps, perStep)
		if perStep > stage1AllocBudget {
			t.Errorf("%s: Stage 1 allocates %.3f times per step, budget %.2f", set.name, perStep, stage1AllocBudget)
		}
	}
}
