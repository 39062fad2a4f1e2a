package typestate

import (
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
)

// mockCtx drives checkers directly, without the engine.
type mockCtx struct {
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

func (m *mockCtx) Graph() *aliasgraph.Graph     { return m.g }
func (m *mockCtx) Tracker() *Tracker            { return m.tr }
func (m *mockCtx) IsStackAddr(v cir.Value) bool { return m.stack[v] }
func (m *mockCtx) Intrinsics() *Intrinsics      { return m.intr }
func (m *mockCtx) Depth() int                   { return m.depth }
func (m *mockCtx) FrameID() int                 { return m.frame }
func (m *mockCtx) CallerFrameID() int           { return m.caller }
func (m *mockCtx) IsDefined(callee string) bool { return m.defined[callee] }

func preg(name string) *cir.Register {
	return &cir.Register{Name: name, Typ: cir.PointerTo(cir.I64)}
}

// feed applies all emissions of one instruction through the tracker.
func feed(m *mockCtx, c Checker, in cir.Instr) {
	ci := m.tr.CheckerIndex(c)
	for _, em := range c.OnInstr(in, m, nil) {
		m.tr.Apply(ci, em)
	}
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
	if m.tr.StateOf(0, m.g.NodeOf(p)) != npdN {
		t.Fatalf("state after NULL move = %s", m.tr.StateOf(0, m.g.NodeOf(p)))
	}
	// Deref through the null pointer hits the bug state.
	ld := &cir.Load{Dst: preg("v"), Addr: p}
	feed(m, c, ld)
	if m.tr.StateOf(0, m.g.NodeOf(p)) != npdBug {
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
	ems := c.OnBind(param, cir.NullConst(param.Typ), site, m)
	if len(ems) != 1 || ems[0].Event != evAssNull {
		t.Errorf("bind-null emissions = %v", ems)
	}
	if ems := c.OnBind(param, preg("arg"), site, m); len(ems) != 0 {
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
	if m.tr.StateOf(0, m.g.NodeOf(dst)) != uvaUI {
		t.Fatal("malloc region should start S_UI")
	}
	// A field carved from the region inherits S_UI.
	fa := &cir.FieldAddr{Dst: preg("f"), Base: dst, Field: "x"}
	fa.Dst.Def = fa
	m.g.GEP(fa.Dst, dst, aliasgraph.FieldLabel("x"))
	feed(m, c, fa)
	if m.tr.StateOf(0, m.g.NodeOf(fa.Dst)) != uvaUI {
		t.Error("field of uninitialized region should inherit S_UI")
	}
	// Storing initializes the field; loading then is clean.
	st := &cir.Store{Addr: fa.Dst, Val: cir.IntConst(cir.I64, 1)}
	feed(m, c, st)
	if m.tr.StateOf(0, m.g.NodeOf(fa.Dst)) != uvaI {
		t.Error("store should initialize the field")
	}
}

func TestUVAMemsetInitializes(t *testing.T) {
	c := NewUVA()
	m := newMockCtx(c)
	dst := preg("buf")
	feed(m, c, mkCall("kmalloc", dst, cir.IntConst(cir.I64, 64)))
	feed(m, c, mkCall("memset", nil, dst, cir.IntConst(cir.I64, 0)))
	if m.tr.StateOf(0, m.g.NodeOf(dst)) != uvaI {
		t.Error("memset should initialize the region")
	}
}

func TestUVAOpaqueCalleeModes(t *testing.T) {
	// Default: opaque callee initializes; thread-unaware: it does not.
	for _, tc := range []struct {
		checker *UVAChecker
		want    State
	}{
		{NewUVA(), uvaI},
		{NewUVAThreadUnaware(), uvaUI},
	} {
		m := newMockCtx(tc.checker)
		dst := preg("buf")
		feed(m, tc.checker, mkCall("kmalloc", dst, cir.IntConst(cir.I64, 64)))
		feed(m, tc.checker, mkCall("thread_start", nil, dst))
		if got := m.tr.StateOf(0, m.g.NodeOf(dst)); got != tc.want {
			t.Errorf("opaqueInit=%v: state = %s, want %s", tc.checker.opaqueInit, got, tc.want)
		}
	}
}

func TestMLCheckerLifecycle(t *testing.T) {
	c := NewML()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	obj := m.g.NodeOf(dst)
	if m.tr.StateOf(0, obj) != mlNF {
		t.Fatal("malloc should set S_NF")
	}
	// Escape through an opaque consumer.
	feed(m, c, mkCall("register_buffer", nil, dst))
	if m.tr.PropOf(0, obj, propEscaped) != 1 {
		t.Error("opaque consumer should escape the object")
	}
	// Free moves to S_F.
	feed(m, c, mkCall("free", nil, dst))
	if m.tr.StateOf(0, obj) != mlF {
		t.Error("free should set S_F")
	}
}

func TestMLOnReturnLeak(t *testing.T) {
	c := NewML()
	m := newMockCtx(c)
	dst := preg("p")
	feed(m, c, mkCall("malloc", dst, cir.IntConst(cir.I64, 8)))
	ret := &cir.Ret{}
	ci := m.tr.CheckerIndex(c)
	var bug bool
	m.tr.Sink = func(int, Emission, State) { bug = true }
	for _, em := range c.OnReturn(ret, m) {
		m.tr.Apply(ci, em)
	}
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
	if ems := c.OnReturn(ret, m); len(ems) != 0 {
		t.Errorf("returned pointer must not leak: %v", ems)
	}
	if m.tr.PropOf(0, obj, propFrame) != 1 {
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
	if m.tr.StateOf(0, obj) != uafFreed {
		t.Fatalf("state after free = %s", m.tr.StateOf(0, obj))
	}
	// Use after free.
	ld := &cir.Load{Dst: preg("v"), Addr: dst}
	feed(m, c, ld)
	if m.tr.StateOf(0, obj) != uafBug {
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
	if m.tr.StateOf(0, m.g.NodeOf(lk)) != dlLocked {
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
	if m.tr.StateOf(0, m.g.NodeOf(h)) != pairHeld {
		t.Error("result-style handle not held")
	}
	feed(m, result, mkCall("release", nil, h))
	if m.tr.StateOf(0, m.g.NodeOf(h)) != pairDone {
		t.Error("release did not balance")
	}

	dev := preg("dev")
	ci := m.tr.CheckerIndex(arg)
	for _, em := range arg.OnInstr(mkCall("on", nil, dev), m, nil) {
		m.tr.Apply(ci, em)
	}
	if m.tr.StateOf(ci, m.g.NodeOf(dev)) != pairHeld {
		t.Error("argument-style handle not held")
	}
}

func TestAIUAndDBZOnBind(t *testing.T) {
	aiu := NewAIU()
	dbz := NewDBZ()
	m := newMockCtx(aiu, dbz)
	site := mkCall("callee", nil)

	pIdx := preg("idx")
	ems := aiu.OnBind(pIdx, cir.IntConst(cir.I64, -2), site, m)
	if len(ems) != 1 || ems[0].Event != evAssNeg {
		t.Errorf("AIU bind emissions = %v", ems)
	}
	pDiv := preg("div")
	ems = dbz.OnBind(pDiv, cir.IntConst(cir.I64, 0), site, m)
	if len(ems) != 1 || ems[0].Event != evAssZero {
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
	if m.tr.StateOf(0, m.g.DerefNode(addr)) != dbzZero {
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
