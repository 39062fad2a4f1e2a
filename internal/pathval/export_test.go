package pathval

import "repro/internal/smt"

// SetScreenOutHook installs f to see each candidate the batch screen
// drops: the path-condition atoms the cursor refuted (valid only during
// the call) and the replay context's variable count.
func (v *Validator) SetScreenOutHook(f func(atoms []smt.Formula, numVars int)) {
	v.screenOutHook = f
}
