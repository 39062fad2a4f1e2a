package pathval

import (
	"time"

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
