package typestate

import (
	"slices"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/hmix"
)

// Spec is a checker as data: its FSM plus the event each event source of
// the interpreter emits. An empty Event, like a nil table, turns its source
// off. The interpreter below implements every source once for all specs.
type Spec struct {
	CheckerName string
	BugType     BugType
	Machine     FSM

	// AssNull fires on the register a NULL constant is moved or bound
	// into, and on the location a NULL is stored to.
	AssNull Event
	// BrNull and BrNonNull fire on a pointer a branch proves NULL or
	// non-NULL.
	BrNull, BrNonNull Event
	// Deref fires on a non-stack pointer that is loaded from, stored to or
	// offset by a field or element address.
	Deref Event

	// Constant classification (AIU, DBZ): a value v is bad when v Bad 0.
	// An integer constant moved or bound into a register emits AssBad or
	// AssGood on it; a bad constant stored through a pointer emits
	// StoreBad on the location; a branch fact "v Pred c" on an integer
	// emits the event of the first BrConst row that matches it.
	Bad             cir.Pred
	AssBad, AssGood Event
	StoreBad        Event
	BrConst         []ConstFact
	// IndexUse fires on an array index register, DivUse on a divisor
	// register; both attach the extra bug condition "v Bad 0".
	IndexUse, DivUse Event

	// Calls emits events on the handles of matched calls. A call no rule
	// matches is opaque when the module does not define its callee.
	Calls []CallRule

	// Storage (UVA): states attach to address classes. Alloc fires on an
	// alloca, and on a field or element address carved out of a region in
	// state Region; Write fires on a stored-to address, Read on a
	// loaded-from one, and OpaqueInit on every pointer an opaque call
	// receives.
	Alloc, Write, Read, OpaqueInit Event
	Region                         State

	// Resource ownership (ML, Pair): a call emitting Acquire makes the
	// current frame the owner of the handle. A Held resource escapes when
	// an opaque call receives it or, with EscapeOnStore, when it is stored
	// into non-stack memory. At a return, a returned held resource passes
	// to the caller (or escapes, from the entry function); then Leak fires
	// on every unescaped held resource the returning frame owns.
	Acquire       Event
	Held          State
	EscapeOnStore bool
	Leak          Event
}

// ConstFact maps a branch fact "v Pred c" with Lo <= c <= Hi to Event.
type ConstFact struct {
	Pred   cir.Pred
	Lo, Hi int64
	Event  Event
}

// CallRule emits Event on the handle of a call whose callee has intrinsic
// kind Intr (when set) or one of the Names: the call's result when
// FromResult, else its first argument.
type CallRule struct {
	Intr       Intrinsic
	Names      []string
	FromResult bool
	Event      Event
}

func (r *CallRule) matches(callee string, kind Intrinsic) bool {
	if r.Intr != IntrNone {
		return r.Intr == kind
	}
	for _, n := range r.Names {
		if n == callee {
			return true
		}
	}
	return false
}

// Name implements Checker.
func (s *Spec) Name() string { return s.CheckerName }

// Type implements Checker.
func (s *Spec) Type() BugType { return s.BugType }

// FSM implements Checker.
func (s *Spec) FSM() *FSM { return &s.Machine }

// Digest hashes the spec's full content: FSM, event fields and callee
// lists. The incremental cache salts with it, so two variants sharing a
// name (the two UVA modes, pairing rules that differ only in callees)
// never replay each other's results. Fields are hashed one by one in
// declaration order, slices with their lengths and the FSM's maps in
// sorted key order, so equal specs hash equally whatever their maps'
// iteration order. A field added to Spec must be added here too
// (TestSpecDigestCoversEveryField fails until it is).
func (s *Spec) Digest() uint64 {
	var d digest
	d.str(s.CheckerName)
	d.str(string(s.BugType))
	d.fsm(&s.Machine)
	d.strs(string(s.AssNull), string(s.BrNull), string(s.BrNonNull), string(s.Deref),
		string(s.Bad), string(s.AssBad), string(s.AssGood), string(s.StoreBad))
	d.u(uint64(len(s.BrConst)))
	for _, f := range s.BrConst {
		d.str(string(f.Pred))
		d.u(uint64(f.Lo))
		d.u(uint64(f.Hi))
		d.str(string(f.Event))
	}
	d.strs(string(s.IndexUse), string(s.DivUse))
	d.u(uint64(len(s.Calls)))
	for _, r := range s.Calls {
		d.u(uint64(r.Intr))
		d.u(uint64(len(r.Names)))
		d.strs(r.Names...)
		d.bool(r.FromResult)
		d.str(string(r.Event))
	}
	d.strs(string(s.Alloc), string(s.Write), string(s.Read), string(s.OpaqueInit),
		string(s.Region), string(s.Acquire), string(s.Held))
	d.bool(s.EscapeOnStore)
	d.str(string(s.Leak))
	return uint64(d)
}

// digest is a running hash over a sequence of values.
type digest uint64

func (d *digest) u(x uint64) { *d = digest(hmix.Mix2(uint64(*d), x)) }

func (d *digest) str(s string) { d.u(hmix.Str(s)) }

func (d *digest) strs(ss ...string) {
	for _, s := range ss {
		d.str(s)
	}
}

func (d *digest) bool(b bool) {
	if b {
		d.u(1)
	} else {
		d.u(0)
	}
}

// fsm hashes an FSM, its transition table in sorted (state, event) order.
func (d *digest) fsm(f *FSM) {
	d.strs(f.Name, string(f.Initial), string(f.Bug))
	d.u(uint64(len(f.Transitions)))
	for _, from := range sortedKeys(f.Transitions) {
		row := f.Transitions[from]
		d.str(string(from))
		d.u(uint64(len(row)))
		for _, ev := range sortedKeys(row) {
			d.strs(string(ev), string(row[ev]))
		}
	}
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func emission(obj *aliasgraph.Node, ev Event, in cir.Instr) Emission {
	return Emission{Obj: obj, Event: ev, Instr: in}
}

// OnInstr implements Checker.
func (s *Spec) OnInstr(in cir.Instr, ctx Ctx, out []Emission) []Emission {
	g := ctx.Graph()
	switch t := in.(type) {
	case *cir.Move:
		out = s.assign(g, t.Dst, t.Src, in, out)
	case *cir.Alloca:
		if s.Alloc != "" {
			out = append(out, emission(g.NodeOf(t.Dst), s.Alloc, in))
		}
	case *cir.Store:
		if s.AssNull != "" && cir.IsNullConst(t.Val) {
			out = append(out, emission(g.DerefNode(t.Addr), s.AssNull, in))
		}
		if cc, ok := intConst(t.Val); ok && s.StoreBad != "" && s.bad(cc.Val) {
			out = append(out, emission(g.DerefNode(t.Addr), s.StoreBad, in))
		}
		if s.Write != "" {
			out = append(out, emission(g.NodeOf(t.Addr), s.Write, in))
		}
		out = s.deref(g, ctx, t.Addr, in, out)
		if s.EscapeOnStore && !ctx.IsStackAddr(t.Addr) {
			s.escape(ctx, t.Val)
		}
	case *cir.Load:
		if s.Read != "" {
			out = append(out, emission(g.NodeOf(t.Addr), s.Read, in))
		}
		out = s.deref(g, ctx, t.Addr, in, out)
	case *cir.FieldAddr:
		out = s.deref(g, ctx, t.Base, in, out)
		out = s.carve(g, ctx, t.Dst, t.Base, in, out)
	case *cir.IndexAddr:
		out = s.deref(g, ctx, t.Base, in, out)
		out = s.carve(g, ctx, t.Dst, t.Base, in, out)
		if r, ok := t.Index.(*cir.Register); ok && s.IndexUse != "" {
			out = append(out, s.use(g, r, s.IndexUse, in))
		}
	case *cir.BinOp:
		if r, ok := t.Y.(*cir.Register); ok && s.DivUse != "" && (t.Op == cir.OpDiv || t.Op == cir.OpRem) {
			out = append(out, s.use(g, r, s.DivUse, in))
		}
	case *cir.Call:
		out = s.call(g, ctx, t, out)
	}
	return out
}

// OnBind implements Checker: a bound constant acts like a moved one.
func (s *Spec) OnBind(param *cir.Register, arg cir.Value, site *cir.Call, ctx Ctx, out []Emission) []Emission {
	return s.assign(ctx.Graph(), param, arg, site, out)
}

func (s *Spec) assign(g *aliasgraph.Graph, dst *cir.Register, src cir.Value, in cir.Instr, out []Emission) []Emission {
	if s.AssNull != "" && cir.IsNullConst(src) {
		out = append(out, emission(g.NodeOf(dst), s.AssNull, in))
	}
	if cc, ok := intConst(src); ok && s.AssBad != "" {
		ev := s.AssGood
		if s.bad(cc.Val) {
			ev = s.AssBad
		}
		out = append(out, emission(g.NodeOf(dst), ev, in))
	}
	return out
}

// bad reports whether the constant c satisfies "c Bad 0".
func (s *Spec) bad(c int64) bool {
	switch s.Bad {
	case cir.PredEQ:
		return c == 0
	case cir.PredNE:
		return c != 0
	case cir.PredLT:
		return c < 0
	case cir.PredLE:
		return c <= 0
	case cir.PredGT:
		return c > 0
	case cir.PredGE:
		return c >= 0
	}
	return false
}

// intConst returns v as an integer constant (not NULL, not a string).
func intConst(v cir.Value) (*cir.Const, bool) {
	cc, ok := v.(*cir.Const)
	return cc, ok && !cc.IsStr && !cc.IsNull
}

func (s *Spec) deref(g *aliasgraph.Graph, ctx Ctx, ptr cir.Value, in cir.Instr, out []Emission) []Emission {
	if s.Deref != "" && !ctx.IsStackAddr(ptr) && isPointerValue(ptr) {
		out = append(out, emission(g.NodeOf(ptr), s.Deref, in))
	}
	return out
}

// carve lets a field or element address inherit its region's
// uninitialized state; one carved out of initialized or unknown storage
// starts unknown.
func (s *Spec) carve(g *aliasgraph.Graph, ctx Ctx, dst *cir.Register, base cir.Value, in cir.Instr, out []Emission) []Emission {
	if s.Region != "" && ctx.Tracker().StateOf(ctx.Checker(), g.NodeOf(base)) == s.Region {
		out = append(out, emission(g.NodeOf(dst), s.Alloc, in))
	}
	return out
}

func (s *Spec) use(g *aliasgraph.Graph, r *cir.Register, ev Event, in cir.Instr) Emission {
	return Emission{Obj: g.NodeOf(r), Event: ev, Instr: in,
		Extra: &ExtraConstraint{Val: r, Pred: s.Bad, Bound: 0}}
}

func (s *Spec) call(g *aliasgraph.Graph, ctx Ctx, call *cir.Call, out []Emission) []Emission {
	if len(s.Calls) == 0 {
		return out
	}
	kind := ctx.Intrinsic(call)
	for i := range s.Calls {
		r := &s.Calls[i]
		if !r.matches(call.Callee, kind) {
			continue
		}
		var h cir.Value
		if r.FromResult && call.Dst != nil {
			h = call.Dst
		} else if !r.FromResult && len(call.Args) > 0 {
			h = call.Args[0]
		}
		if h == nil {
			return out
		}
		obj := g.NodeOf(h)
		if r.Event == s.Acquire {
			tr, ci := ctx.Tracker(), ctx.Checker()
			rec := tr.rec(ci, obj)
			rec.frame, rec.escaped = int32(ctx.FrameID()), false
			tr.set(ci, obj, rec)
		}
		return append(out, emission(obj, r.Event, call))
	}
	// A pointer handed to an opaque callee may be initialized, stored or
	// released there: UVA assumes it initialized (avoiding the concurrency
	// false positives of §5.2; the thread-unaware variant reproduces them)
	// and an owned resource escapes (Saber does the same, §6).
	if (s.OpaqueInit == "" && s.Held == "") || ctx.IsDefined(call) {
		return out
	}
	for _, a := range call.Args {
		if !isPointerValue(a) {
			continue
		}
		if s.OpaqueInit != "" {
			out = append(out, emission(g.NodeOf(a), s.OpaqueInit, call))
		}
		s.escape(ctx, a)
	}
	return out
}

// escape marks v's class escaped when it is a held resource.
func (s *Spec) escape(ctx Ctx, v cir.Value) {
	if s.Held == "" {
		return
	}
	tr, ci := ctx.Tracker(), ctx.Checker()
	if obj := ctx.Graph().Lookup(v); obj != nil {
		if rec := tr.rec(ci, obj); tr.moved(ci, rec, s.Held) {
			rec.escaped = true
			tr.set(ci, obj, rec)
		}
	}
}

// OnReturn implements Checker: the resource-ownership sweep.
func (s *Spec) OnReturn(ret *cir.Ret, ctx Ctx, out []Emission) []Emission {
	if s.Held == "" {
		return out
	}
	tr, ci := ctx.Tracker(), ctx.Checker()
	frame := int32(ctx.FrameID())
	if ret.Val != nil {
		if obj := ctx.Graph().Lookup(ret.Val); obj != nil {
			if rec := tr.rec(ci, obj); tr.moved(ci, rec, s.Held) && rec.frame == frame {
				if ctx.Depth() == 0 {
					// Returning from the entry function publishes the
					// resource to the unknown caller.
					rec.escaped = true
				} else {
					rec.frame = int32(ctx.CallerFrameID())
				}
				tr.set(ci, obj, rec)
			}
		}
	}
	for _, obj := range tr.touched[ci] {
		if rec := tr.rec(ci, obj); tr.moved(ci, rec, s.Held) && rec.frame == frame && !rec.escaped {
			out = append(out, emission(obj, s.Leak, ret))
		}
	}
	return out
}

// OnBranch implements Checker.
func (s *Spec) OnBranch(br *cir.CondBr, facts []BranchFact, ctx Ctx, out []Emission) []Emission {
	for i := range facts {
		if ev := s.branchEvent(&facts[i]); ev != "" {
			out = append(out, emission(ctx.Graph().NodeOf(facts[i].Val), ev, br))
		}
	}
	return out
}

func (s *Spec) branchEvent(f *BranchFact) Event {
	typ := f.Val.Type()
	switch {
	case cir.IsPointer(typ) && (f.Bound.IsNull || f.Bound.Val == 0):
		switch f.Pred {
		case cir.PredEQ:
			return s.BrNull
		case cir.PredNE:
			return s.BrNonNull
		}
	case cir.IsInteger(typ) && !f.Bound.IsNull && !f.Bound.IsStr:
		for i := range s.BrConst {
			if c := &s.BrConst[i]; c.Pred == f.Pred && c.Lo <= f.Bound.Val && f.Bound.Val <= c.Hi {
				return c.Event
			}
		}
	}
	return ""
}

// BranchFact describes what traversing a branch in one direction implies
// about a compared value: Val Pred Bound holds on the taken path.
type BranchFact struct {
	Val   cir.Value
	Pred  cir.Pred
	Bound *cir.Const
}

// BranchFacts extracts the comparison facts, at most two, of a conditional
// branch into an array, so the per-branch hook allocates nothing. The
// frontend normalizes every condition into a Cmp register, so the defining
// instruction carries the predicate.
func BranchFacts(br *cir.CondBr, taken bool) (facts [2]BranchFact, n int) {
	reg, ok := br.Cond.(*cir.Register)
	if !ok || reg.Def == nil {
		return facts, 0
	}
	cmp, ok := reg.Def.(*cir.Cmp)
	if !ok {
		return facts, 0
	}
	pred := cmp.Pred
	if !taken {
		pred = pred.Negate()
	}
	if c, isC := cmp.Y.(*cir.Const); isC {
		facts[n] = BranchFact{Val: cmp.X, Pred: pred, Bound: c}
		n++
	}
	if c, isC := cmp.X.(*cir.Const); isC {
		facts[n] = BranchFact{Val: cmp.Y, Pred: swapPred(pred), Bound: c}
		n++
	}
	return facts, n
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

// isPointerValue reports whether v is a non-constant pointer (registers and
// globals; dereferencing a constant address is out of scope).
func isPointerValue(v cir.Value) bool {
	switch v.(type) {
	case *cir.Register, *cir.Global:
		return cir.IsPointer(v.Type())
	}
	return false
}
