package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/pathval"
	"repro/internal/typestate"
)

// TestContinuationsNegativeUnlimited pins the documented P2-cap semantics of
// MaxContinuationsPerCall: 0 selects the default cap of 2, a positive value
// admits that many callee return paths into the caller (the rest end at the
// return, already typestate-checked inside the callee), and a negative value
// means unlimited. The NPD below sits behind v == 30, which only the third
// of pick's four return paths can produce — so it is invisible under the
// default cap and found once the cap admits three or more continuations.
// Stage 2 runs, so the candidates behind pick's infeasible return paths
// (v == 10 or 20 meeting v == 30) are dropped.
func TestContinuationsNegativeUnlimited(t *testing.T) {
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": `
int pick(int x) {
	if (x == 1)
		return 10;
	if (x == 2)
		return 20;
	if (x == 3)
		return 30;
	return 0;
}
int f(int x) {
	int *p = NULL;
	int v = pick(x);
	if (v == 30)
		return *p;
	return 0;
}`})
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(maxConts int) *core.Result {
		cfg := core.Config{MaxContinuationsPerCall: maxConts}
		pathval.New().Install(&cfg)
		return core.RunParallel(mod, cfg, 1)
	}
	npd := func(res *core.Result) int {
		n := 0
		for _, b := range res.Bugs {
			if b.Type == typestate.NPD {
				n++
			}
		}
		return n
	}

	def := analyze(0)
	if got := npd(def); got != 0 {
		t.Errorf("default cap 2 reached the third continuation: %d NPDs", got)
	}
	three := analyze(3)
	if got := npd(three); got != 1 {
		t.Errorf("cap 3: want the v==30 NPD, got %d", got)
	}
	unlimited := analyze(-1)
	if got := npd(unlimited); got != 1 {
		t.Errorf("negative cap: want the v==30 NPD, got %d", got)
	}
	if unlimited.Stats.StepsExecuted <= def.Stats.StepsExecuted {
		t.Errorf("unlimited continuations did not execute more steps: %d vs %d",
			unlimited.Stats.StepsExecuted, def.Stats.StepsExecuted)
	}
	huge := analyze(100)
	if npd(huge) != 1 || huge.Stats.StepsExecuted != unlimited.Stats.StepsExecuted {
		t.Errorf("cap 100 and unlimited disagree: %d NPDs / %d steps vs %d NPDs / %d steps",
			npd(huge), huge.Stats.StepsExecuted, npd(unlimited), unlimited.Stats.StepsExecuted)
	}
}
