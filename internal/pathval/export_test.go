package pathval

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/smt"
)

// SetScreenOutHook installs f to see each candidate the batch screen
// drops: the path-condition atoms the cursor refuted (valid only during
// the call) and the replay context's variable count.
func (v *Validator) SetScreenOutHook(f func(atoms []*smt.Atom, numVars int)) {
	v.screenOutHook = f
}

// SetSolveHook makes f decide the validator's final solves in place of
// BuiltinSolve. Set it before the first validation.
func (v *Validator) SetSolveHook(f func(ctx *smt.Context, atoms []*smt.Atom, deadline time.Time, done <-chan struct{}) (smt.Result, smt.Model, bool)) {
	v.solve = f
}

// BuiltinSolve is the solve a validator runs when no hook is set.
var BuiltinSolve = builtinSolve

// validateSingle validates bug as a batch of one.
func (v *Validator) validateSingle(ctx context.Context, bug *core.PossibleBug, mode core.Mode) core.ValidationOutcome {
	return v.ValidateBatchCtx(ctx, []*core.PossibleBug{bug}, mode)[0]
}

// replay replays steps on r, then adds bug's extra constraint: the formula
// a one-item walk solves at its leaf.
func (r *replayer) replay(bug *core.PossibleBug, steps []core.PathStep) {
	for i, st := range steps {
		r.applyStep(st, stepCallee(st, steps, i))
	}
	if bug.Extra != nil {
		r.addAtom(predAtom(bug.Extra.Pred, r.termOf(bug.Extra.Val), smt.Int(bug.Extra.Bound)))
	}
}
