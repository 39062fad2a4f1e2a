package typestate

import (
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
)

// mockCtx drives checkers directly, without the engine.
type mockCtx struct {
	ci      int
	g       *aliasgraph.Graph
	tr      *Tracker
	intr    *Intrinsics
	depth   int
	frame   int
	caller  int
	defined map[string]bool
	stack   map[cir.Value]bool
}

func newMockCtx(checkers ...Checker) *mockCtx {
	m := &mockCtx{
		g:       aliasgraph.New(),
		intr:    DefaultIntrinsics(),
		frame:   1,
		defined: map[string]bool{},
		stack:   map[cir.Value]bool{},
	}
	m.tr = NewTracker(checkers, nil)
	return m
}

func (m *mockCtx) Graph() *aliasgraph.Graph      { return m.g }
func (m *mockCtx) Tracker() *Tracker             { return m.tr }
func (m *mockCtx) IsStackAddr(v cir.Value) bool  { return m.stack[v] }
func (m *mockCtx) Intrinsics() *Intrinsics       { return m.intr }
func (m *mockCtx) Depth() int                    { return m.depth }
func (m *mockCtx) FrameID() int                  { return m.frame }
func (m *mockCtx) CallerFrameID() int            { return m.caller }
func (m *mockCtx) IsDefined(call *cir.Call) bool { return m.defined[call.Callee] }
func (m *mockCtx) Checker() int                  { return m.ci }

func preg(name string) *cir.Register {
	return &cir.Register{Name: name, Typ: cir.PointerTo(cir.I64)}
}

// index returns c's tracker index and makes it the running checker.
func (m *mockCtx) index(c Checker) int {
	for i, cc := range m.tr.Checkers {
		if cc == c {
			m.ci = i
		}
	}
	return m.ci
}

// apply feeds emissions through the tracker as checker m.ci.
func (m *mockCtx) apply(ems []Emission) {
	for _, em := range ems {
		m.tr.Apply(m.ci, em)
	}
}

// feed applies all emissions of one instruction through the tracker.
func feed(m *mockCtx, c Checker, in cir.Instr) {
	m.index(c)
	m.apply(c.OnInstr(in, m, nil))
}

func mkCall(callee string, dst *cir.Register, args ...cir.Value) *cir.Call {
	call := &cir.Call{Callee: callee, Args: args}
	call.Dst = dst
	if dst != nil {
		dst.Def = call
	}
	return call
}

func TestNPDCheckerEmissions(t *testing.T) {
	c := NewNPD()
	m := newMockCtx(c)
	p := preg("p")

	// Move of NULL sets S_N.
	mv := &cir.Move{Dst: p, Src: cir.NullConst(p.Typ)}
	p.Def = mv
	m.g.Move(p, mv.Src)
	feed(m, c, mv)
	if m.tr.StateOf(0, m.g.NodeOf(p)) != "S_N" {
		t.Fatalf("state after NULL move = %s", m.tr.StateOf(0, m.g.NodeOf(p)))
	}
	// Deref through the null pointer hits the bug state.
	ld := &cir.Load{Dst: preg("v"), Addr: p}
	feed(m, c, ld)
	if m.tr.StateOf(0, m.g.NodeOf(p)) != "S_NPD" {
		t.Errorf("deref of NULL did not reach bug state")
	}
}

func TestNPDCheckerStackAddrSafe(t *testing.T) {
	c := NewNPD()
	m := newMockCtx(c)
	slot := preg("slot")
	m.stack[slot] = true
	ld := &cir.Load{Dst: preg("v"), Addr: slot}
	if ems := c.OnInstr(ld, m, nil); len(ems) != 0 {
		t.Errorf("stack load must not emit deref: %v", ems)
	}
}

func TestNPDOnBindNull(t *testing.T) {
	c := NewNPD()
	m := newMockCtx(c)
	param := preg("param")
	site := mkCall("callee", nil)
	ems := c.OnBind(param, cir.NullConst(param.Typ), site, m, nil)
	if len(ems) != 1 || ems[0].Event != "ass_null" {
		t.Errorf("bind-null emissions = %v", ems)
	}
	if ems := c.OnBind(param, preg("arg"), site, m, nil); len(ems) != 0 {
		t.Errorf("non-null bind should not emit: %v", ems)
	}
}

func TestUVACheckerRegionInheritance(t *testing.T) {
	c := NewUVA()
	m := newMockCtx(c)
	// Heap allocation: the region is uninitialized.
	dst := preg("buf")
	call := mkCall("kmalloc", dst, cir.IntConst(cir.I64, 64))
	feed(m, c, call)
	if m.tr.StateOf(0, m.g.NodeOf(dst)) != "S_UI" {
		t.Fatal("malloc region should start S_UI")
	}
	// A field carved from the region inherits S_UI.
	fa := &cir.FieldAddr{Dst: preg("f"), Base: dst, Field: "x"}
	fa.Dst.Def = fa
	m.g.GEP(fa.Dst, dst, aliasgraph.FieldLabel("x"))
	feed(m, c, fa)
	if m.tr.StateOf(0, m.g.NodeOf(fa.Dst)) != "S_UI" {
		t.Error("field of uninitialized region should inherit S_UI")
	}
	// Storing initializes the field; loading then is clean.
	st := &cir.Store{Addr: fa.Dst, Val: cir.IntConst(cir.I64, 1)}
	feed(m, c, st)
	if m.tr.StateOf(0, m.g.NodeOf(fa.Dst)) != "S_I" {
		t.Error("store should initialize the field")
	}
}

func TestUVAMemsetInitializes(t *testing.T) {
	c := NewUVA()
	m := newMockCtx(c)
	dst := preg("buf")
	feed(m, c, mkCall("kmalloc", dst, cir.IntConst(cir.I64, 64)))
	feed(m, c, mkCall("memset", nil, dst, cir.IntConst(cir.I64, 0)))
	if m.tr.StateOf(0, m.g.NodeOf(dst)) != "S_I" {
		t.Error("memset should initialize the region")
	}
}

func TestUVAOpaqueCalleeModes(t *testing.T) {
	// Default: opaque callee initializes; thread-unaware: it does not.
	for _, tc := range []struct {
		checker *Spec
		want    State
	}{
		{NewUVA(), "S_I"},
		{NewUVAThreadUnaware(), "S_UI"},
	} {
		m := newMockCtx(tc.checker)
		dst := preg("buf")
		feed(m, tc.checker, mkCall("kmalloc", dst, cir.IntConst(cir.I64, 64)))
		feed(m, tc.checker, mkCall("thread_start", nil, dst))
		if got := m.tr.StateOf(0, m.g.NodeOf(dst)); got != tc.want {
			t.Errorf("OpaqueInit=%q: state = %s, want %s", tc.checker.OpaqueInit, got, tc.want)
		}
	}
}

func TestMLCheckerLifecycle(t *testing.T) {
	c := NewML()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	obj := m.g.NodeOf(dst)
	if m.tr.StateOf(0, obj) != "S_NF" {
		t.Fatal("malloc should set S_NF")
	}
	// Escape through an opaque consumer.
	feed(m, c, mkCall("register_buffer", nil, dst))
	if !m.tr.rec(0, obj).escaped {
		t.Error("opaque consumer should escape the object")
	}
	// Free moves to S_F.
	feed(m, c, mkCall("free", nil, dst))
	if m.tr.StateOf(0, obj) != "S_F" {
		t.Error("free should set S_F")
	}
}

func TestMLOnReturnLeak(t *testing.T) {
	c := NewML()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	ret := &cir.Ret{}
	var bug bool
	m.tr.Sink = func(int, Emission, State) { bug = true }
	m.apply(c.OnReturn(ret, m, nil))
	if !bug {
		t.Error("unfreed object at return should report")
	}
}

func TestMLOnReturnOwnershipTransfer(t *testing.T) {
	c := NewML()
	m := newMockCtx(c)
	m.depth = 1
	m.frame = 2
	m.caller = 1
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	obj := m.g.NodeOf(dst)
	ret := &cir.Ret{Val: dst}
	if ems := c.OnReturn(ret, m, nil); len(ems) != 0 {
		t.Errorf("returned pointer must not leak: %v", ems)
	}
	if m.tr.rec(0, obj).frame != 1 {
		t.Error("ownership should transfer to the caller frame")
	}
}

func TestUAFCheckerLifecycle(t *testing.T) {
	c := NewUAF()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	feed(m, c, mkCall("free", nil, dst))
	obj := m.g.NodeOf(dst)
	if m.tr.StateOf(0, obj) != "S_FREED" {
		t.Fatalf("state after free = %s", m.tr.StateOf(0, obj))
	}
	// Use after free.
	ld := &cir.Load{Dst: preg("v"), Addr: dst}
	feed(m, c, ld)
	if m.tr.StateOf(0, obj) != "S_UAF" {
		t.Error("use after free should reach the bug state")
	}
}

func TestUAFDoubleFreeEmission(t *testing.T) {
	c := NewUAF()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	feed(m, c, mkCall("free", nil, dst))
	var bug bool
	m.tr.Sink = func(int, Emission, State) { bug = true }
	feed(m, c, mkCall("free", nil, dst))
	if !bug {
		t.Error("double free should report")
	}
}

func TestDLCheckerEmissions(t *testing.T) {
	c := NewDL()
	m := newMockCtx(c)
	lk := preg("lock")
	feed(m, c, mkCall("mutex_lock", nil, lk))
	if m.tr.StateOf(0, m.g.NodeOf(lk)) != "S_L" {
		t.Fatal("lock should set S_L")
	}
	var bug bool
	m.tr.Sink = func(int, Emission, State) { bug = true }
	feed(m, c, mkCall("mutex_lock", nil, lk))
	if !bug {
		t.Error("double lock should report")
	}
}

func TestPairCheckerHandleStyles(t *testing.T) {
	result := NewPair(PairRule{Name: "r1", Open: []string{"acquire"}, Close: []string{"release"}, HandleFromResult: true})
	arg := NewPair(PairRule{Name: "r2", Open: []string{"on"}, Close: []string{"off"}})
	m := newMockCtx(result, arg)

	h := preg("h")
	feed(m, result, mkCall("acquire", h))
	if m.tr.StateOf(0, m.g.NodeOf(h)) != "S_HELD" {
		t.Error("result-style handle not held")
	}
	feed(m, result, mkCall("release", nil, h))
	if m.tr.StateOf(0, m.g.NodeOf(h)) != "S_DONE" {
		t.Error("release did not balance")
	}

	dev := preg("dev")
	ci := m.index(arg)
	m.apply(arg.OnInstr(mkCall("on", nil, dev), m, nil))
	if m.tr.StateOf(ci, m.g.NodeOf(dev)) != "S_HELD" {
		t.Error("argument-style handle not held")
	}
}

func TestAIUAndDBZOnBind(t *testing.T) {
	aiu := NewAIU()
	dbz := NewDBZ()
	m := newMockCtx(aiu, dbz)
	site := mkCall("callee", nil)

	pIdx := preg("idx")
	ems := aiu.OnBind(pIdx, cir.IntConst(cir.I64, -2), site, m, nil)
	if len(ems) != 1 || ems[0].Event != "ass_neg" {
		t.Errorf("AIU bind emissions = %v", ems)
	}
	pDiv := preg("div")
	ems = dbz.OnBind(pDiv, cir.IntConst(cir.I64, 0), site, m, nil)
	if len(ems) != 1 || ems[0].Event != "ass_zero" {
		t.Errorf("DBZ bind emissions = %v", ems)
	}
}

func TestDBZStoreZero(t *testing.T) {
	c := NewDBZ()
	m := newMockCtx(c)
	addr := preg("d")
	st := &cir.Store{Addr: addr, Val: cir.IntConst(cir.I64, 0)}
	m.g.Store(addr, st.Val)
	feed(m, c, st)
	if m.tr.StateOf(0, m.g.DerefNode(addr)) != "S_Z" {
		t.Error("storing 0 should set the location's class to S_Z")
	}
}

func TestAIUIndexUseExtraConstraint(t *testing.T) {
	c := NewAIU()
	m := newMockCtx(c)
	idx := preg("i")
	idx.Typ = cir.I64
	ia := &cir.IndexAddr{Dst: preg("e"), Base: preg("arr"), Index: idx}
	ems := c.OnInstr(ia, m, nil)
	if len(ems) != 1 || ems[0].Extra == nil || ems[0].Extra.Pred != cir.PredLT {
		t.Errorf("index use must carry the idx<0 extra constraint: %v", ems)
	}
}

// nullBranch returns a branch on v == NULL.
func nullBranch(v cir.Value) *cir.CondBr {
	fn := &cir.Function{Name: "f"}
	cmp := &cir.Cmp{Dst: &cir.Register{Name: "c", Typ: cir.I1}, Pred: cir.PredEQ, X: v, Y: cir.NullConst(v.Type())}
	cmp.Dst.Def = cmp
	return &cir.CondBr{Cond: cmp.Dst, True: &cir.Block{Name: "t", Fn: fn}, False: &cir.Block{Name: "f", Fn: fn}}
}

// TestAliasNodeCreationOrder pins which event sources create alias-graph
// nodes, and in what order, for the resource checkers. Node IDs number the
// creations, so a source that starts or stops creating a node moves them,
// even where no report changes.
// ML and Pair create the node of a pointer on its NULL branch (their
// alloc_failed and open_failed events), not on its non-NULL one; DL creates
// the node of a call's first argument only when the callee locks or
// unlocks; no checker creates one for an opaque callee's argument.
func TestAliasNodeCreationOrder(t *testing.T) {
	ml, dl := NewML(), NewDL()
	pair := NewPair(PairRule{Name: "r", Open: []string{"acquire"}, Close: []string{"release"}, HandleFromResult: true})
	for _, c := range []struct {
		name     string
		checkers []Checker
		want     map[string]int // value → node ID; 0 = no node
	}{
		{"ML", []Checker{ml}, map[string]int{"q": 1, "p": 2}},
		{"DL", []Checker{dl}, map[string]int{"lk": 1}},
		{"Pair", []Checker{pair}, map[string]int{"q": 1, "h": 2}},
		{"ML+DL+Pair", []Checker{ml, dl, pair}, map[string]int{"q": 1, "p": 2, "lk": 3, "h": 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newMockCtx(c.checkers...)
			step := func(hook func(Checker) []Emission) {
				for _, ck := range c.checkers {
					m.index(ck)
					m.apply(hook(ck))
				}
			}
			vals := make(map[string]*cir.Register)
			for _, name := range []string{"p", "q", "r", "s", "lk", "h"} {
				vals[name] = preg(name)
			}
			// Each event is a call, or a branch on v == NULL, taken or not.
			type event struct {
				call  *cir.Call
				null  cir.Value
				taken bool
			}
			for _, ev := range []event{
				{call: mkCall("printk", nil, vals["r"])}, // opaque callee
				{null: vals["q"], taken: true},
				{call: mkCall("malloc", vals["p"], cir.IntConst(cir.I64, 8))},
				{null: vals["s"], taken: false},
				{call: mkCall("mutex_lock", nil, vals["lk"], vals["r"])},
				{call: mkCall("acquire", vals["h"])}, // Pair's open
				{call: mkCall("mutex_unlock", nil, vals["lk"], vals["s"])},
			} {
				if ev.call != nil {
					step(func(ck Checker) []Emission { return ck.OnInstr(ev.call, m, nil) })
					continue
				}
				br := nullBranch(ev.null)
				step(func(ck Checker) []Emission { return ck.OnBranch(br, ev.taken, m, nil) })
			}
			for name, v := range vals {
				got := 0
				if n := m.g.Lookup(v); n != nil {
					got = n.ID
				}
				if got != c.want[name] {
					t.Errorf("%s: node %d, want %d", name, got, c.want[name])
				}
			}
			if n := m.g.NodeOf(preg("next")); n.ID != len(c.want)+1 {
				t.Errorf("next node is %d, want %d: a source created a node no value names", n.ID, len(c.want)+1)
			}
		})
	}
}
