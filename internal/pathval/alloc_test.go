package pathval

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// stage2AllocBudget bounds heap allocations per replayed step of batched
// Stage-2 validation once the replayer pool and the verdict cache are warm,
// so what is measured is the walk itself: trie building, replay, screen
// pushes and the cached leaf solves. Replay allocates every smt.Var and
// atom it builds, screen pushes build linear forms and each leaf keys its
// formula and renders its trigger strings, so the budget is not zero; what
// it guards against is per-step trie storage. Measured 3.74 mallocs/step
// on validate-heavy ×4 (4.45–4.51 under -race, whose sync.Pool drops a
// quarter of the puts), against 6.39 (6.82) when every shared step had its
// own trie node and every path its own key slice.
const stage2AllocBudget = 5.0

// TestStage2AllocBudget validates the candidates of validate-heavy ×4
// (helper and validation clusters scaled too) the way the engine does —
// same-entry groups through ValidateBatchCtx, on one goroutine — twice
// through one validator, and fails when the second pass allocates more
// than the budget per replayed step.
func TestStage2AllocBudget(t *testing.T) {
	base := oscorpus.ValidationHeavySpec()
	spec := oscorpus.Scaled(base, 4)
	for i := range spec.Cats {
		spec.Cats[i].Helpers = base.Cats[i].Helpers * 4
		spec.Cats[i].Validation = base.Cats[i].Validation * 4
	}
	c := oscorpus.Generate(spec)
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunParallel(mod, core.Config{Checkers: typestate.CoreCheckers()}, 1)
	groups := entryGroups(res.Possible)
	v := New()
	pass := func() {
		for _, g := range groups {
			v.ValidateBatchCtx(context.Background(), g, core.ModePATA)
		}
	}
	pass() // warm the replayer pool and the verdict cache
	var before, after runtime.MemStats
	steps0 := v.stepsReplayed
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	steps := v.stepsReplayed - steps0
	if steps == 0 {
		t.Fatal("no steps replayed")
	}
	perStep := float64(after.Mallocs-before.Mallocs) / float64(steps)
	t.Logf("%d groups: %d mallocs over %d replayed steps: %.3f/step",
		len(groups), after.Mallocs-before.Mallocs, steps, perStep)
	if perStep > stage2AllocBudget {
		t.Errorf("batched Stage 2 allocates %.3f times per replayed step, budget %.2f", perStep, stage2AllocBudget)
	}
}

// entryGroups splits candidates into runs of the same entry function, the
// batches the engine's Stage 2 hands to ValidateBatchCtx.
func entryGroups(possible []*core.PossibleBug) [][]*core.PossibleBug {
	var groups [][]*core.PossibleBug
	for i, pb := range possible {
		if i == 0 || pb.EntryFn != possible[i-1].EntryFn {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], pb)
	}
	return groups
}
