package typestate

import (
	"repro/internal/cir"
)

// The three §5.5 extension checkers, each built from a small FSM exactly
// like the Table 2 checkers, demonstrating the framework's generality.

// DL states and events.
const (
	dlS0       State = "S0" // lock state unknown / unlocked at path entry
	dlLocked   State = "S_L"
	dlUnlocked State = "S_U"
	dlBug      State = "S_DL"

	evLock   Event = "lock"
	evUnlock Event = "unlock"
)

// DLChecker detects double locks and double unlocks of the same lock object.
type DLChecker struct {
	baseChecker
	fsm *FSM
}

// NewDL returns the double-lock/unlock checker.
func NewDL() *DLChecker {
	return &DLChecker{fsm: &FSM{
		Name:    "FSM_DL",
		Initial: dlS0,
		Bug:     dlBug,
		Transitions: map[State]map[Event]State{
			dlS0: {
				evLock:   dlLocked,
				evUnlock: dlUnlocked,
			},
			dlLocked: {
				evLock:   dlBug, // double lock
				evUnlock: dlUnlocked,
			},
			dlUnlocked: {
				evLock:   dlLocked,
				evUnlock: dlBug, // double unlock
			},
		},
	}}
}

// Name implements Checker.
func (c *DLChecker) Name() string { return "double-lock-unlock" }

// Type implements Checker.
func (c *DLChecker) Type() BugType { return DL }

// FSM implements Checker.
func (c *DLChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker.
func (c *DLChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	call, ok := in.(*cir.Call)
	if !ok || len(call.Args) == 0 {
		return out
	}
	obj := ctx.Graph().NodeOf(call.Args[0])
	switch ctx.Intrinsics().Classify(call.Callee) {
	case IntrLock:
		return append(out, Emission{Obj: obj, Event: evLock, Instr: in})
	case IntrUnlock:
		return append(out, Emission{Obj: obj, Event: evUnlock, Instr: in})
	}
	return out
}

// AIU states and events.
const (
	aiuS0  State = "S0"
	aiuNeg State = "S_NEG" // the value is negative on this path
	aiuOK  State = "S_OK"  // checked non-negative
	aiuBug State = "S_AIU"

	evBrNeg    Event = "br_neg"
	evBrNonNeg Event = "br_nonneg"
	evAssNeg   Event = "ass_neg"
	evAssPos   Event = "ass_nonneg"
	evIndexUse Event = "index_use"
)

// AIUChecker detects array indexing with a value known negative on the path.
type AIUChecker struct {
	baseChecker
	fsm *FSM
}

// NewAIU returns the array-index-underflow checker.
func NewAIU() *AIUChecker {
	return &AIUChecker{fsm: &FSM{
		Name:    "FSM_AIU",
		Initial: aiuS0,
		Bug:     aiuBug,
		Transitions: map[State]map[Event]State{
			aiuS0: {
				evBrNeg:    aiuNeg,
				evAssNeg:   aiuNeg,
				evBrNonNeg: aiuOK,
				evAssPos:   aiuOK,
			},
			aiuNeg: {
				evIndexUse: aiuBug,
				evBrNonNeg: aiuOK,
				evAssPos:   aiuOK,
			},
			aiuOK: {
				evBrNeg:  aiuNeg,
				evAssNeg: aiuNeg,
			},
			aiuBug: {
				evIndexUse: aiuBug,
			},
		},
	}}
}

// Name implements Checker.
func (c *AIUChecker) Name() string { return "array-index-underflow" }

// Type implements Checker.
func (c *AIUChecker) Type() BugType { return AIU }

// FSM implements Checker.
func (c *AIUChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker.
func (c *AIUChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	switch t := in.(type) {
	case *cir.Move:
		if cc, ok := t.Src.(*cir.Const); ok && !cc.IsStr && !cc.IsNull {
			ev := evAssPos
			if cc.Val < 0 {
				ev = evAssNeg
			}
			return append(out, Emission{Obj: g.NodeOf(t.Dst), Event: ev, Instr: in})
		}
	case *cir.IndexAddr:
		if r, ok := t.Index.(*cir.Register); ok {
			return append(out, Emission{
				Obj: g.NodeOf(r), Event: evIndexUse, Instr: in,
				Extra: &ExtraConstraint{Val: r, Pred: cir.PredLT, Bound: 0},
			})
		}
	}
	return out
}

// OnBranch implements Checker: sign checks drive the FSM.
func (c *AIUChecker) OnBranch(br *cir.CondBr, taken bool, ctx Ctx) []Emission {
	g := ctx.Graph()
	var out []Emission
	for _, f := range BranchFacts(br, taken) {
		if f.Bound == nil || f.Bound.IsNull || f.Bound.IsStr || !cir.IsInteger(f.Val.Type()) {
			continue
		}
		switch {
		case f.Pred == cir.PredLT && f.Bound.Val <= 0:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNeg, Instr: br})
		case f.Pred == cir.PredLE && f.Bound.Val < 0:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNeg, Instr: br})
		case f.Pred == cir.PredGE && f.Bound.Val >= 0:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNonNeg, Instr: br})
		case f.Pred == cir.PredGT && f.Bound.Val >= -1:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNonNeg, Instr: br})
		case f.Pred == cir.PredEQ && f.Bound.Val >= 0:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNonNeg, Instr: br})
		case f.Pred == cir.PredEQ && f.Bound.Val < 0:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNeg, Instr: br})
		}
	}
	return out
}

// DBZ states and events.
const (
	dbzS0   State = "S0"
	dbzZero State = "S_Z"
	dbzNZ   State = "S_NZ"
	dbzBug  State = "S_DBZ"

	evBrZero    Event = "br_zero"
	evBrNonZero Event = "br_nonzero"
	evAssZero   Event = "ass_zero"
	evAssNZ     Event = "ass_nonzero"
	evDivUse    Event = "div_use"
)

// DBZChecker detects division/remainder by a value known zero on the path.
type DBZChecker struct {
	baseChecker
	fsm *FSM
}

// NewDBZ returns the division-by-zero checker.
func NewDBZ() *DBZChecker {
	return &DBZChecker{fsm: &FSM{
		Name:    "FSM_DBZ",
		Initial: dbzS0,
		Bug:     dbzBug,
		Transitions: map[State]map[Event]State{
			dbzS0: {
				evBrZero:    dbzZero,
				evAssZero:   dbzZero,
				evBrNonZero: dbzNZ,
				evAssNZ:     dbzNZ,
			},
			dbzZero: {
				evDivUse:    dbzBug,
				evBrNonZero: dbzNZ,
				evAssNZ:     dbzNZ,
			},
			dbzNZ: {
				evBrZero:  dbzZero,
				evAssZero: dbzZero,
			},
			dbzBug: {
				evDivUse: dbzBug,
			},
		},
	}}
}

// Name implements Checker.
func (c *DBZChecker) Name() string { return "division-by-zero" }

// Type implements Checker.
func (c *DBZChecker) Type() BugType { return DBZ }

// FSM implements Checker.
func (c *DBZChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker.
func (c *DBZChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	switch t := in.(type) {
	case *cir.Move:
		if cc, ok := t.Src.(*cir.Const); ok && !cc.IsStr && !cc.IsNull {
			ev := evAssNZ
			if cc.Val == 0 {
				ev = evAssZero
			}
			return append(out, Emission{Obj: g.NodeOf(t.Dst), Event: ev, Instr: in})
		}
	case *cir.Store:
		if cc, ok := t.Val.(*cir.Const); ok && !cc.IsStr && !cc.IsNull && cc.Val == 0 {
			return append(out, Emission{Obj: g.DerefNode(t.Addr), Event: evAssZero, Instr: in})
		}
	case *cir.BinOp:
		if t.Op != cir.OpDiv && t.Op != cir.OpRem {
			return out
		}
		if r, ok := t.Y.(*cir.Register); ok {
			return append(out, Emission{
				Obj: g.NodeOf(r), Event: evDivUse, Instr: in,
				Extra: &ExtraConstraint{Val: r, Pred: cir.PredEQ, Bound: 0},
			})
		}
	}
	return out
}

// OnBranch implements Checker: zero checks drive the FSM.
func (c *DBZChecker) OnBranch(br *cir.CondBr, taken bool, ctx Ctx) []Emission {
	g := ctx.Graph()
	var out []Emission
	for _, f := range BranchFacts(br, taken) {
		if f.Bound == nil || f.Bound.IsNull || f.Bound.IsStr || f.Bound.Val != 0 {
			continue
		}
		if !cir.IsInteger(f.Val.Type()) {
			continue
		}
		switch f.Pred {
		case cir.PredEQ:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrZero, Instr: br})
		case cir.PredNE, cir.PredGT, cir.PredLT:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNonZero, Instr: br})
		}
	}
	return out
}

// AllCheckers returns the three Table 2 checkers, the three §5.5 extension
// checkers, and the use-after-free extension.
func AllCheckers() []Checker {
	return []Checker{NewNPD(), NewUVA(), NewML(), NewDL(), NewAIU(), NewDBZ(), NewUAF()}
}

// CoreCheckers returns the NPD/UVA/ML trio used in the paper's main
// evaluation (§5.1).
func CoreCheckers() []Checker {
	return []Checker{NewNPD(), NewUVA(), NewML()}
}

// OnBind implements Checker for AIU: constant arguments carry their sign.
func (c *AIUChecker) OnBind(param *cir.Register, arg cir.Value, site *cir.Call, ctx Ctx) []Emission {
	if cc, ok := arg.(*cir.Const); ok && !cc.IsStr && !cc.IsNull {
		ev := evAssPos
		if cc.Val < 0 {
			ev = evAssNeg
		}
		return []Emission{{Obj: ctx.Graph().NodeOf(param), Event: ev, Instr: site}}
	}
	return nil
}

// OnBind implements Checker for DBZ: constant arguments carry their zeroness.
func (c *DBZChecker) OnBind(param *cir.Register, arg cir.Value, site *cir.Call, ctx Ctx) []Emission {
	if cc, ok := arg.(*cir.Const); ok && !cc.IsStr && !cc.IsNull {
		ev := evAssNZ
		if cc.Val == 0 {
			ev = evAssZero
		}
		return []Emission{{Obj: ctx.Graph().NodeOf(param), Event: ev, Instr: site}}
	}
	return nil
}
