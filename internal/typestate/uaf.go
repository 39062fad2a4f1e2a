package typestate

import (
	"repro/internal/cir"
)

// UAF is the use-after-free bug type — an extension checker beyond the
// paper's six (its §8 highlights typestate analysis of use-after-free as a
// key application, citing UAFuzz and machine-learning-guided UAF work).
const UAF BugType = "UAF"

// UAF states and events. States attach to the alias class of the freed
// pointer value, like the ML checker's.
const (
	uafS0    State = "S0"
	uafLive  State = "S_LIVE"
	uafFreed State = "S_FREED"
	uafBug   State = "S_UAF"

	evUafAlloc Event = "malloc"
	evUafFree  Event = "free"
	evUafUse   Event = "use"
)

// UAFChecker detects uses (dereference or double free) of freed heap
// pointers.
type UAFChecker struct {
	baseChecker
	fsm *FSM
}

// NewUAF returns the use-after-free checker.
func NewUAF() *UAFChecker {
	return &UAFChecker{fsm: &FSM{
		Name:    "FSM_UAF",
		Initial: uafS0,
		Bug:     uafBug,
		Transitions: map[State]map[Event]State{
			uafS0: {
				evUafAlloc: uafLive,
				// Frees of unknown pointers (params) are not tracked: the
				// caller may legitimately own them.
			},
			uafLive: {
				evUafFree: uafFreed,
				evUafUse:  uafLive,
			},
			uafFreed: {
				evUafUse:   uafBug, // use after free (incl. double free)
				evUafAlloc: uafLive,
			},
			uafBug: {
				evUafUse: uafBug,
			},
		},
	}}
}

// Name implements Checker.
func (c *UAFChecker) Name() string { return "use-after-free" }

// Type implements Checker.
func (c *UAFChecker) Type() BugType { return UAF }

// FSM implements Checker.
func (c *UAFChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker: allocations and frees drive the lifecycle;
// dereferences and re-frees of a freed class are uses.
func (c *UAFChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	switch t := in.(type) {
	case *cir.Call:
		switch ctx.Intrinsics().Classify(t.Callee) {
		case IntrAlloc, IntrZeroAlloc:
			if t.Dst != nil {
				out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evUafAlloc, Instr: in})
			}
		case IntrFree:
			if len(t.Args) > 0 {
				obj := g.NodeOf(t.Args[0])
				tr := ctx.Tracker()
				ci := tr.CheckerIndex(c)
				if tr.StateOf(ci, obj) == uafFreed {
					// Double free: a "use" of the freed object.
					out = append(out, Emission{Obj: obj, Event: evUafUse, Instr: in})
				} else {
					out = append(out, Emission{Obj: obj, Event: evUafFree, Instr: in})
				}
			}
		}
	case *cir.Load:
		if !ctx.IsStackAddr(t.Addr) && isPointerValue(t.Addr) {
			out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evUafUse, Instr: in})
		}
	case *cir.Store:
		if !ctx.IsStackAddr(t.Addr) && isPointerValue(t.Addr) {
			out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evUafUse, Instr: in})
		}
	case *cir.FieldAddr:
		if !ctx.IsStackAddr(t.Base) && isPointerValue(t.Base) {
			out = append(out, Emission{Obj: g.NodeOf(t.Base), Event: evUafUse, Instr: in})
		}
	case *cir.IndexAddr:
		if !ctx.IsStackAddr(t.Base) && isPointerValue(t.Base) {
			out = append(out, Emission{Obj: g.NodeOf(t.Base), Event: evUafUse, Instr: in})
		}
	}
	return out
}
