package typestate

import (
	"repro/internal/cir"
)

// API is the bug type reported by configurable pairing rules.
const API BugType = "API"

// Pair states and events. The FSM generalizes the ML checker: an "open"
// call acquires a resource handle, a "close" call releases it; returning
// while held is a leak-style bug, closing twice is a double-release bug.
const (
	pairS0   State = "S0"
	pairHeld State = "S_HELD"
	pairDone State = "S_DONE"
	pairBug  State = "S_API"

	evPairOpen  Event = "open"
	evPairClose Event = "close"
	evPairRet   Event = "ret"
	evPairNil   Event = "open_failed" // the handle's NULL branch was taken
)

// PairRule configures one acquire/release API pair.
type PairRule struct {
	// Name labels reports, e.g. "region" for request/release_region.
	Name string
	// Open and Close list the callee spellings.
	Open  []string
	Close []string
	// HandleFromResult selects where the resource handle lives: true takes
	// the open call's result (of_node_get-style), false its first argument
	// (request_region-style).
	HandleFromResult bool
}

// PairChecker detects API-pairing violations for one rule — the §7
// "API-rule checking" application of the alias analysis: because the handle
// is tracked per alias class, releases through aliases (other variables,
// fields) correctly balance the acquire.
type PairChecker struct {
	baseChecker
	rule  PairRule
	open  map[string]bool
	close map[string]bool
	fsm   *FSM
}

// NewPair returns a checker for the given rule.
func NewPair(rule PairRule) *PairChecker {
	c := &PairChecker{
		rule:  rule,
		open:  make(map[string]bool),
		close: make(map[string]bool),
	}
	for _, n := range rule.Open {
		c.open[n] = true
	}
	for _, n := range rule.Close {
		c.close[n] = true
	}
	c.fsm = &FSM{
		Name:    "FSM_API_" + rule.Name,
		Initial: pairS0,
		Bug:     pairBug,
		Transitions: map[State]map[Event]State{
			pairS0: {
				evPairOpen: pairHeld,
			},
			pairHeld: {
				evPairClose: pairDone,
				evPairRet:   pairBug,  // resource not released
				evPairNil:   pairDone, // acquisition failed: nothing held
			},
			pairDone: {
				evPairOpen:  pairHeld,
				evPairClose: pairBug, // double release
			},
		},
	}
	return c
}

// Name implements Checker.
func (c *PairChecker) Name() string { return "api-pair-" + c.rule.Name }

// Type implements Checker.
func (c *PairChecker) Type() BugType { return API }

// FSM implements Checker.
func (c *PairChecker) FSM() *FSM { return c.fsm }

func (c *PairChecker) handleOf(call *cir.Call, ctx Ctx) *cir.Value {
	if c.rule.HandleFromResult {
		if call.Dst == nil {
			return nil
		}
		v := cir.Value(call.Dst)
		return &v
	}
	if len(call.Args) == 0 {
		return nil
	}
	return &call.Args[0]
}

// OnInstr implements Checker.
func (c *PairChecker) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	call, ok := in.(*cir.Call)
	if !ok {
		return out
	}
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	switch {
	case c.open[call.Callee]:
		h := c.handleOf(call, ctx)
		if h == nil {
			return out
		}
		obj := g.NodeOf(*h)
		tr.SetProp(ci, obj, propFrame, int64(ctx.FrameID()))
		tr.SetProp(ci, obj, propEscaped, 0)
		return append(out, Emission{Obj: obj, Event: evPairOpen, Instr: in})
	case c.close[call.Callee]:
		if len(call.Args) == 0 {
			return out
		}
		return append(out, Emission{Obj: g.NodeOf(call.Args[0]), Event: evPairClose, Instr: in})
	default:
		// Handing the handle to an opaque callee may transfer release
		// responsibility.
		if !ctx.IsDefined(call.Callee) {
			for _, a := range call.Args {
				if isPointerValue(a) {
					if obj := g.Lookup(a); obj != nil && tr.StateOf(ci, obj) == pairHeld {
						tr.SetProp(ci, obj, propEscaped, 1)
					}
				}
			}
		}
	}
	return out
}

// OnBranch implements Checker: taking the handle == NULL branch after a
// result-style open means the acquisition failed (of_find_node_by_name
// returning NULL), so nothing is held on this path.
func (c *PairChecker) OnBranch(br *cir.CondBr, taken bool, ctx Ctx) []Emission {
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
		if obj := g.Lookup(f.Val); obj != nil && tr.StateOf(ci, obj) == pairHeld {
			out = append(out, Emission{Obj: obj, Event: evPairNil, Instr: br})
		}
	}
	return out
}

// OnReturn implements Checker: held, unescaped handles owned by the
// returning frame are pairing violations, mirroring the ML checker's
// ownership rules.
func (c *PairChecker) OnReturn(ret *cir.Ret, ctx Ctx) []Emission {
	g := ctx.Graph()
	tr := ctx.Tracker()
	ci := tr.CheckerIndex(c)
	frame := int64(ctx.FrameID())
	if ret.Val != nil {
		if obj := g.Lookup(ret.Val); obj != nil && tr.StateOf(ci, obj) == pairHeld {
			if tr.PropOf(ci, obj, propFrame) == frame {
				if ctx.Depth() == 0 {
					tr.SetProp(ci, obj, propEscaped, 1)
				} else {
					tr.SetProp(ci, obj, propFrame, int64(ctx.CallerFrameID()))
				}
			}
		}
	}
	var out []Emission
	for _, obj := range tr.ObjectsInState(ci, pairHeld) {
		if tr.PropOf(ci, obj, propFrame) != frame || tr.PropOf(ci, obj, propEscaped) != 0 {
			continue
		}
		out = append(out, Emission{Obj: obj, Event: evPairRet, Instr: ret})
	}
	return out
}

// CommonPairRules returns pairing rules for widespread kernel APIs.
func CommonPairRules() []PairRule {
	return []PairRule{
		{Name: "region", Open: []string{"request_region", "request_mem_region"},
			Close: []string{"release_region", "release_mem_region"}, HandleFromResult: true},
		{Name: "of_node", Open: []string{"of_node_get", "of_find_node_by_name"},
			Close: []string{"of_node_put"}, HandleFromResult: true},
		{Name: "clk", Open: []string{"clk_prepare_enable", "clk_enable"},
			Close: []string{"clk_disable_unprepare", "clk_disable"}},
		{Name: "irq", Open: []string{"enable_irq"}, Close: []string{"disable_irq"}},
	}
}
