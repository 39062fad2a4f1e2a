package typestate

import (
	"repro/internal/cir"
)

// ML states and events (Table 2, right column). States attach to the alias
// class of the allocated pointer value (the abstract heap object handle).
const (
	mlS0  State = "S0"
	mlNF  State = "S_NF"
	mlF   State = "S_F"
	mlBug State = "S_ML"

	evMalloc   Event = "malloc"
	evFree     Event = "free"
	evRet      Event = "ret"
	evAllocNil Event = "alloc_failed" // the allocation-failure branch was taken
)

// Object properties maintained by the ML checker.
const (
	propFrame   = "frame"   // frame that owns the object
	propEscaped = "escaped" // 1 when the object outlives static tracking
)

// MLChecker detects memory leaks: heap objects still S_NF, unescaped, and
// owned by the returning frame when a return executes.
type MLChecker struct {
	baseChecker
	fsm *FSM
}

// NewML returns the memory-leak checker.
func NewML() *MLChecker {
	return &MLChecker{fsm: &FSM{
		Name:    "FSM_ML",
		Initial: mlS0,
		Bug:     mlBug,
		Transitions: map[State]map[Event]State{
			mlS0: {
				evMalloc: mlNF,
			},
			mlNF: {
				evFree:     mlF,
				evRet:      mlBug,
				evAllocNil: mlF, // if (p == NULL): nothing was allocated here
			},
			mlF: {
				evMalloc: mlNF, // reallocation through the same class
			},
		},
	}}
}

// Name implements Checker.
func (c *MLChecker) Name() string { return "memory-leak" }

// Type implements Checker.
func (c *MLChecker) Type() BugType { return ML }

// FSM implements Checker.
func (c *MLChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker: allocation and free intrinsics drive the FSM;
// stores into non-stack storage and opaque calls escape the object.
func (c *MLChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	switch t := in.(type) {
	case *cir.Call:
		switch ctx.Intrinsics().Classify(t.Callee) {
		case IntrAlloc, IntrZeroAlloc:
			if t.Dst != nil {
				obj := g.NodeOf(t.Dst)
				tr.SetProp(ci, obj, propFrame, int64(ctx.FrameID()))
				tr.SetProp(ci, obj, propEscaped, 0)
				out = append(out, Emission{Obj: obj, Event: evMalloc, Instr: in})
			}
		case IntrFree:
			if len(t.Args) > 0 {
				out = append(out, Emission{Obj: g.NodeOf(t.Args[0]), Event: evFree, Instr: in})
			}
		default:
			// A tracked pointer passed to an opaque callee may be stored or
			// freed there; escape it (Saber does the same, §6).
			if !ctx.IsDefined(t.Callee) {
				for _, a := range t.Args {
					if isPointerValue(a) {
						if obj := g.Lookup(a); obj != nil && tr.StateOf(ci, obj) == mlNF {
							tr.SetProp(ci, obj, propEscaped, 1)
						}
					}
				}
			}
		}
	case *cir.Store:
		// Storing the pointer into memory that is not a local slot (e.g. a
		// global, or a structure reached through a pointer parameter) makes
		// it reachable after return: the object escapes.
		if !ctx.IsStackAddr(t.Addr) {
			if obj := g.Lookup(t.Val); obj != nil && tr.StateOf(ci, obj) == mlNF {
				tr.SetProp(ci, obj, propEscaped, 1)
			}
		}
	}
	return out
}

// OnBranch implements Checker: taking the p == NULL branch of an allocation
// result means the allocation failed on this path, so there is nothing to
// leak.
func (c *MLChecker) OnBranch(br *cir.CondBr, taken bool, ctx Ctx) []Emission {
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	var out []Emission
	for _, f := range BranchFacts(br, taken) {
		if f.Pred != cir.PredEQ || !cir.IsPointer(f.Val.Type()) {
			continue
		}
		if !cir.IsNullConst(f.Bound) && f.Bound.Val != 0 {
			continue
		}
		if obj := g.Lookup(f.Val); obj != nil && tr.StateOf(ci, obj) == mlNF {
			out = append(out, Emission{Obj: obj, Event: evAllocNil, Instr: br})
		}
	}
	return out
}

// OnReturn implements Checker: fire the ret event on every unfreed,
// unescaped object owned by the returning frame; transfer ownership of a
// returned pointer to the caller's frame first.
func (c *MLChecker) OnReturn(ret *cir.Ret, ctx Ctx) []Emission {
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	frame := int64(ctx.FrameID())

	// Returning the pointer hands the object to the caller.
	if ret.Val != nil {
		if obj := g.Lookup(ret.Val); obj != nil && tr.StateOf(ci, obj) == mlNF {
			if tr.PropOf(ci, obj, propFrame) == frame {
				if ctx.Depth() == 0 {
					// Returning from the entry function publishes the
					// object to the unknown caller.
					tr.SetProp(ci, obj, propEscaped, 1)
				} else {
					tr.SetProp(ci, obj, propFrame, int64(ctx.CallerFrameID()))
				}
			}
		}
	}

	var out []Emission
	for _, obj := range tr.ObjectsInState(ci, mlNF) {
		if tr.PropOf(ci, obj, propFrame) != frame {
			continue
		}
		if tr.PropOf(ci, obj, propEscaped) != 0 {
			continue
		}
		out = append(out, Emission{Obj: obj, Event: evRet, Instr: ret})
	}
	return out
}
