package typestate

import (
	"repro/internal/cir"
)

// BranchFact describes what traversing a branch in one direction implies
// about a compared value: Val Pred Bound holds on the taken path.
type BranchFact struct {
	Val   cir.Value
	Pred  cir.Pred
	Bound *cir.Const
}

// BranchFacts extracts comparison facts from a conditional branch. The
// frontend normalizes every condition into a Cmp register, so the defining
// instruction carries the predicate.
func BranchFacts(br *cir.CondBr, taken bool) []BranchFact {
	reg, ok := br.Cond.(*cir.Register)
	if !ok || reg.Def == nil {
		return nil
	}
	cmp, ok := reg.Def.(*cir.Cmp)
	if !ok {
		return nil
	}
	pred := cmp.Pred
	if !taken {
		pred = pred.Negate()
	}
	var out []BranchFact
	if c, isC := cmp.Y.(*cir.Const); isC {
		out = append(out, BranchFact{Val: cmp.X, Pred: pred, Bound: c})
	}
	if c, isC := cmp.X.(*cir.Const); isC {
		out = append(out, BranchFact{Val: cmp.Y, Pred: swapPred(pred), Bound: c})
	}
	return out
}

// swapPred mirrors a predicate across its operands (x < y  <=>  y > x).
func swapPred(p cir.Pred) cir.Pred {
	switch p {
	case cir.PredLT:
		return cir.PredGT
	case cir.PredGT:
		return cir.PredLT
	case cir.PredLE:
		return cir.PredGE
	case cir.PredGE:
		return cir.PredLE
	}
	return p // eq/ne are symmetric
}

// NPD states and events (Table 2, left column).
const (
	npdS0       State = "S0"
	npdNON      State = "S_NON"
	npdN        State = "S_N"
	npdBug      State = "S_NPD"
	evAssNull   Event = "ass_null"
	evBrNull    Event = "br_null"
	evBrNonNull Event = "br_nonnull"
	evDeref     Event = "deref"
)

// NPDChecker detects null-pointer dereferences.
type NPDChecker struct {
	baseChecker
	fsm *FSM
}

// NewNPD returns the null-pointer-dereference checker.
func NewNPD() *NPDChecker {
	return &NPDChecker{fsm: &FSM{
		Name:    "FSM_NPD",
		Initial: npdS0,
		Bug:     npdBug,
		Transitions: map[State]map[Event]State{
			npdS0: {
				evAssNull:   npdN,
				evBrNull:    npdN,
				evBrNonNull: npdNON,
				evDeref:     npdNON,
			},
			npdNON: {
				evAssNull: npdN,
				evBrNull:  npdN,
				// deref / br_nonnull stay in S_NON (self loops are
				// transitions in the paper's diagram, so they count).
				evDeref:     npdNON,
				evBrNonNull: npdNON,
			},
			npdN: {
				evDeref:     npdBug,
				evBrNonNull: npdNON,
				evAssNull:   npdN,
				evBrNull:    npdN,
			},
			npdBug: {
				evDeref: npdBug, // each unsafe dereference reports
			},
		},
	}}
}

// Name implements Checker.
func (c *NPDChecker) Name() string { return "null-pointer-dereference" }

// Type implements Checker.
func (c *NPDChecker) Type() BugType { return NPD }

// FSM implements Checker.
func (c *NPDChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker: NULL assignments set S_N; loads, stores and
// field accesses through non-stack pointers are dereferences.
func (c *NPDChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	switch t := in.(type) {
	case *cir.Move:
		if cir.IsNullConst(t.Src) {
			out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evAssNull, Instr: in})
		}
	case *cir.Store:
		if cir.IsNullConst(t.Val) {
			out = append(out, Emission{Obj: g.DerefNode(t.Addr), Event: evAssNull, Instr: in})
		}
		if !ctx.IsStackAddr(t.Addr) && isPointerValue(t.Addr) {
			out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evDeref, Instr: in})
		}
	case *cir.Load:
		if !ctx.IsStackAddr(t.Addr) && isPointerValue(t.Addr) {
			out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evDeref, Instr: in})
		}
	case *cir.FieldAddr:
		if !ctx.IsStackAddr(t.Base) && isPointerValue(t.Base) {
			out = append(out, Emission{Obj: g.NodeOf(t.Base), Event: evDeref, Instr: in})
		}
	case *cir.IndexAddr:
		if !ctx.IsStackAddr(t.Base) && isPointerValue(t.Base) {
			out = append(out, Emission{Obj: g.NodeOf(t.Base), Event: evDeref, Instr: in})
		}
	}
	return out
}

// OnBranch implements Checker: null checks drive S_N / S_NON.
func (c *NPDChecker) OnBranch(br *cir.CondBr, taken bool, ctx Ctx) []Emission {
	g := ctx.Graph()
	var out []Emission
	for _, f := range BranchFacts(br, taken) {
		if !cir.IsNullConst(f.Bound) && !(f.Bound.Val == 0 && cir.IsPointer(f.Val.Type())) {
			continue
		}
		if !cir.IsPointer(f.Val.Type()) {
			continue
		}
		switch f.Pred {
		case cir.PredEQ:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNull, Instr: br})
		case cir.PredNE:
			out = append(out, Emission{Obj: g.NodeOf(f.Val), Event: evBrNonNull, Instr: br})
		}
	}
	return out
}

// isPointerValue reports whether v is a non-constant pointer (registers and
// globals; dereferencing a constant address is out of scope).
func isPointerValue(v cir.Value) bool {
	switch v.(type) {
	case *cir.Register, *cir.Global:
		return cir.IsPointer(v.Type())
	}
	return false
}

// OnBind implements Checker: passing a NULL literal into a defined callee
// sets the parameter's class to S_N.
func (c *NPDChecker) OnBind(param *cir.Register, arg cir.Value, site *cir.Call, ctx Ctx) []Emission {
	if cir.IsNullConst(arg) {
		return []Emission{{Obj: ctx.Graph().NodeOf(param), Event: evAssNull, Instr: site}}
	}
	return nil
}
