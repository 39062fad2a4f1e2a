package pathval_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/smt"
	"repro/internal/typestate"
)

// TestScreenUnsatIsSolverUnsat is the batch screen's oracle on real
// Stage-2 formulas: every candidate the screen drops on the committed
// corpora — alias symbols, opaque terms and all — is also smt.Solver-Unsat
// on the conjunction the cursor refuted. The cursor's Unsat is meant to be
// a subset of the solver's (smt.Cursor's contract); the generated-formula
// oracles check that on smtgen's formulas, this one on the formulas
// Stage 2 builds. A screened drop persists in its entry capsule for as
// long as the entry key holds, so an unsound one would outlive the run.
func TestScreenUnsatIsSolverUnsat(t *testing.T) {
	corpora := []oscorpus.OSSpec{
		oscorpus.LinuxSpec(),
		oscorpus.ZephyrSpec(),
		oscorpus.RIOTSpec(),
		oscorpus.TencentSpec(),
		oscorpus.WithRepoExtensions(oscorpus.LinuxSpec()),
		oscorpus.ValidationHeavySpec(),
		validateX12(),
		oscorpus.HelperHeavySpec(),
	}
	total := 0
	for _, spec := range corpora {
		src := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(src.Spec.Name, src.Sources)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.ModePATA, core.ModeNoAlias} {
			var mu sync.Mutex
			screened, sound := 0, 0
			v := pathval.New()
			v.SetScreenOutHook(func(atoms []smt.Formula, numVars int) {
				// A context of its own, numbered past the replay's
				// variables, for the opaque terms the solver interns.
				ctx := smt.NewContext()
				ctx.Reserve(numVars)
				res := smt.NewSolver(ctx).Solve(smt.And(atoms...))
				mu.Lock()
				defer mu.Unlock()
				screened++
				if res == smt.Unsat {
					sound++
				} else if screened-sound <= 3 {
					t.Errorf("%s mode %v: screened out, but the solver says %v on %s",
						src.Spec.Name, mode, res, smt.And(atoms...))
				}
			})
			cfg := core.Config{Checkers: typestate.AllCheckers(), Mode: mode}
			v.Install(&cfg)
			core.RunParallel(mod, cfg, 2)
			if screened != sound {
				t.Errorf("%s mode %v: %d of %d screened candidates are not solver-Unsat",
					src.Spec.Name, mode, screened-sound, screened)
			}
			total += screened
		}
	}
	t.Logf("%d screened candidates checked", total)
	if total == 0 {
		t.Fatal("the batch screen dropped nothing; the oracle checked nothing")
	}
}
