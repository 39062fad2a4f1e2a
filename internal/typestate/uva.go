package typestate

import (
	"repro/internal/cir"
)

// UVA states and events (Table 2, middle column). States attach to ADDRESS
// classes: the alias class of the address names the storage, so aliased
// addresses share one initialization state, field-sensitively (each field
// address is its own class).
const (
	uvaS0  State = "S0"
	uvaUI  State = "S_UI"
	uvaI   State = "S_I"
	uvaBug State = "S_UVA"

	evAlloc    Event = "alloc"     // stack or heap allocation (uninitialized)
	evAssConst Event = "ass_const" // any store initializes the location
	evUse      Event = "use"       // load from the location
	evInit     Event = "init"      // bulk initialization (memset) or escape
)

// UVAChecker detects uses of uninitialized stack and heap memory.
type UVAChecker struct {
	baseChecker
	fsm *FSM
	// opaqueInit controls whether a pointer passed to an opaque callee is
	// assumed initialized afterwards. True (the default) avoids the
	// concurrency false positives of §5.2 at a small false-negative risk;
	// false reproduces the paper's thread-unaware behaviour, where an
	// initialization performed by a concurrently-executed function is
	// invisible and the access is (falsely) reported.
	opaqueInit bool
}

// NewUVA returns the uninitialized-variable-access checker.
func NewUVA() *UVAChecker {
	c := newUVA()
	c.opaqueInit = true
	return c
}

// NewUVAThreadUnaware returns the paper-faithful variant that does NOT
// assume opaque callees initialize their pointer arguments, reproducing the
// §5.2 concurrency false positives.
func NewUVAThreadUnaware() *UVAChecker {
	return newUVA()
}

func newUVA() *UVAChecker {
	return &UVAChecker{fsm: &FSM{
		Name:    "FSM_UVA",
		Initial: uvaS0,
		Bug:     uvaBug,
		Transitions: map[State]map[Event]State{
			uvaS0: {
				evAlloc: uvaUI,
				// Stores/uses on unknown storage (params, globals) stay S0.
			},
			uvaUI: {
				evAssConst: uvaI,
				evInit:     uvaI,
				evUse:      uvaBug,
			},
			uvaI: {
				evAssConst: uvaI,
				evUse:      uvaI,
			},
			uvaBug: {
				evUse: uvaBug, // each access of the uninitialized slot reports
			},
		},
	}}
}

// Name implements Checker.
func (c *UVAChecker) Name() string { return "uninitialized-variable-access" }

// Type implements Checker.
func (c *UVAChecker) Type() BugType { return UVA }

// FSM implements Checker.
func (c *UVAChecker) FSM() *FSM { return c.fsm }

// OnInstr implements Checker.
func (c *UVAChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	switch t := in.(type) {
	case *cir.Alloca:
		// A local without initializer is uninitialized storage. Parameter
		// slots are immediately stored to by the prologue, moving them to
		// S_I before any use.
		out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evAlloc, Instr: in})
	case *cir.Store:
		out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evAssConst, Instr: in})
	case *cir.Load:
		out = append(out, Emission{Obj: g.NodeOf(t.Addr), Event: evUse, Instr: in})
	case *cir.FieldAddr:
		// Field sensitivity with region inheritance: a field address carved
		// out of an uninitialized region starts uninitialized; one carved
		// out of initialized/unknown storage starts unknown.
		if tr.StateOf(ci, g.NodeOf(t.Base)) == uvaUI {
			out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evAlloc, Instr: in})
		}
	case *cir.IndexAddr:
		if tr.StateOf(ci, g.NodeOf(t.Base)) == uvaUI {
			out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evAlloc, Instr: in})
		}
	case *cir.Call:
		intr := ctx.Intrinsics().Classify(t.Callee)
		switch intr {
		case IntrAlloc:
			if t.Dst != nil {
				// The returned pointer's region is uninitialized.
				out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evAlloc, Instr: in})
			}
		case IntrZeroAlloc:
			if t.Dst != nil {
				out = append(out, Emission{Obj: g.NodeOf(t.Dst), Event: evInit, Instr: in})
			}
		case IntrMemInit:
			if len(t.Args) > 0 {
				out = append(out, Emission{Obj: g.NodeOf(t.Args[0]), Event: evInit, Instr: in})
			}
		default:
			// A pointer handed to an opaque callee may be initialized by
			// it; treating it as initialized avoids the concurrency-style
			// false positives of §5.2 (the thread-unaware variant skips
			// this and reproduces them).
			if c.opaqueInit && !ctx.IsDefined(t.Callee) {
				for _, a := range t.Args {
					if isPointerValue(a) {
						out = append(out, Emission{Obj: g.NodeOf(a), Event: evInit, Instr: in})
					}
				}
			}
		}
	}
	return out
}
